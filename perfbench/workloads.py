"""The benchmark's workloads and the checks on their outputs.

Each workload is one call a user of paradim makes in a fresh process, and
each is chosen so that a different layer does most of the work:

- zero3: one level per prime, each used once, so the kernels do ~97% of
  the work (B_{2,chi} sums ~85%, class numbers ~13%).
- bias: 95 levels, each reused ~236 times, so the Fraction assembly in
  compact, characters, elliptic and siegel1 dominates.
- verify: the corpus; a few levels over long weight runs, Hilbert-series
  fitting in exactmath and the corpus groups.
- coset: the quaternion coset enumeration for p = 2 and 3, the only
  workload that touches paradim.quaternion.

The seed chooses the coset weight grid and nothing else.
"""
import csv
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

COSET_FAMILY_SIZES = {2: [192, 192, 192, 192, 1152], 3: [36, 36, 324, 324]}
COSET_SIZES = {2: 1920, 3: 720}
GRID_PER_PRIME = 48
GRID_F2_BELOW = 80
GRID_MAX_GAP = 40


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple      # paradim CLI arguments; empty for the coset call
    units: int       # work units per call
    unit_name: str
    uses_seed: bool
    digest: str      # sha256 of the checked output, recorded on the seed commit


WORKLOADS = {
    w.name: w
    for w in (
        Workload("zero3", ("search", "zero3", "--pmax", "3500"), 489,
                 "primes examined", False,
                 "48add3a95f5a64d30c0379a72b444d21552c9e82e6aab73a637090b4713e63d3"),
        Workload("bias", ("bias", "--pmax", "500", "--kmax", "120"), 95 * 118,
                 "(p, k) pairs", False,
                 "077e0934778f025f1c8229d30d10a25440daa968db322ca8674efc9c2973391f"),
        Workload("verify", ("verify",), 902, "checks", False,
                 "2410d1545ccb42baf7c5df304fb7e9efd315547602f5b2907abaa1c10b19dab9"),
        Workload("coset", (), 1920 + 720, "coset elements", True,
                 "48601fa4b6516ced4eafa58e2f36a7a8027925a1c3b2312019fe8045a04e2884"),
    )
}


def coset_grid(seed):
    """Seeded sample of Young weights (p, f1, f2) for the trace check."""
    rng = random.Random(seed)
    weights = [(f2 + gap, f2) for f2 in range(GRID_F2_BELOW)
               for gap in range(0, GRID_MAX_GAP + 1, 2)]
    return [[p, f1, f2] for p in (2, 3)
            for f1, f2 in sorted(rng.sample(weights, GRID_PER_PRIME))]


def run_coset(grid):
    """The coset workload: enumerate both cosets, then rebuild the trace
    from them on every grid weight next to the formula's trace_R.
    Returns the output as JSON text."""
    from paradim import compact, quaternion

    families = {p: quaternion.enumerate_pi_gamma(p) for p in (2, 3)}
    out = {
        "family_sizes": {str(p): [len(f) for f in families[p]] for p in (2, 3)},
        "coset_sizes": {str(p): sum(quaternion.principal_tallies(p).values())
                        for p in (2, 3)},
        "tallies": {str(p): [sorted([list(key), n] for key, n in t.items())
                             for t in quaternion.family_tallies(p)]
                    for p in (2, 3)},
        "traces": [[p, f1, f2, quaternion.verify_trace_p23(p, f1, f2),
                    compact.trace_R(p, f1, f2)] for p, f1, f2 in grid],
    }
    return json.dumps(out)


def load_expected(root):
    """Published values the outputs must equal, read from the package data."""
    data = Path(root) / "src" / "paradim" / "data"
    with open(data / "weight3.json") as fh:
        zero = json.load(fh)["zero"]
    with open(data / "bias_zero_pairs.csv", newline="") as fh:
        pairs = [[int(r["p"]), int(r["k"])] for r in csv.DictReader(fh)]
    return {"zero3": zero, "bias": pairs}


def digest(workload, output):
    """sha256 of the seed-independent part of an output."""
    # Imported here: hashlib loads OpenSSL, which would add ~3.7 MiB to
    # the peak RSS of every child that imports this module.
    import hashlib

    if workload.name == "coset":
        out = json.loads(output)
        output = json.dumps({k: out[k] for k in ("family_sizes", "coset_sizes", "tallies")},
                            sort_keys=True)
    return hashlib.sha256(output.encode()).hexdigest()


def check(workload, rc, output, expected, grid=None):
    """Problems with one repetition's result; an empty list means correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        problems = _CHECKS[workload.name](output, expected, grid)
        got = digest(workload, output)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unparseable output: {exc!r}"]
    if not problems and got != workload.digest:
        problems.append(f"digest {got} != recorded {workload.digest}")
    return problems


def _check_zero3(output, expected, grid):
    head, *rows = output.split()
    primes = [int(x) for x in rows]
    if head != "p" or primes != expected["zero3"]:
        return ["zero3 list differs from weight3.json['zero']"]
    return []


def _check_bias(output, expected, grid):
    tokens = output.split()
    if tokens[:2] != ["p", "k"]:
        return ["bias output has no p, k header"]
    values = [int(x) for x in tokens[2:]]
    pairs = [values[i:i + 2] for i in range(0, len(values), 2)]
    if pairs != expected["bias"]:
        return ["bias zero pairs differ from bias_zero_pairs.csv"]
    return []


def _check_verify(output, expected, grid):
    lines = output.strip().splitlines()
    if not lines or not re.fullmatch(r"\d+ checks, 0 failed", lines[-1]):
        return [f"verify reported failures: {lines[-1] if lines else 'no output'}"]
    return []


def _check_coset(output, expected, grid):
    out = json.loads(output)
    problems = []
    for p in (2, 3):
        if out["family_sizes"][str(p)] != COSET_FAMILY_SIZES[p]:
            problems.append(f"p={p}: family sizes {out['family_sizes'][str(p)]}")
        if out["coset_sizes"][str(p)] != COSET_SIZES[p]:
            problems.append(f"p={p}: coset size {out['coset_sizes'][str(p)]}")
    if [row[:3] for row in out["traces"]] != grid:
        problems.append("trace grid differs from the seeded grid")
    problems += [f"verify_trace_p23{tuple(r[:3])} = {r[3]} != trace_R = {r[4]}"
                 for r in out["traces"] if r[3] != r[4]]
    return problems


_CHECKS = {"zero3": _check_zero3, "bias": _check_bias,
           "verify": _check_verify, "coset": _check_coset}
