"""Benchmark of the traintrack package in ``src/`` of this checkout.

Usage, from the root of the checkout:

    python3 bench/run.py --workload verify_all --seed 0 --seconds 12 --trace 0

Each run is one process on one thread, driving the program in a closed loop:
one caller issues the next item only when the previous one has returned.
The workloads and their inputs are in ``workloads.py``; every output is
checked against the mpmath references of ``oracle.py``, built outside the
timed region.

``--trace 0`` reports the end-to-end metrics.  Every input is called once per
pass, over at least two passes, and its time is its fastest call: the host
may be shared, and load from elsewhere stretches every call made while it
lasts.  ``--trace 1`` calls each input untraced and then traced
(``tracing.py``), reports per-layer metrics per call (for ``verify_all``,
per ``run_all``) and writes the spans to ``.bench_out/``.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Pin native thread pools before numpy is imported, here and in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROCESSES = 5
MIN_PASSES = 2  # so that every input has a fastest of two calls

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "digits_min": "digits",
    "pass_frac": "ratio",
    "peak_rss_mb": "MB",
}

_LAYERS = {
    "appell.f2_series_on_arrays": ("calls", "points", "self_s", "failed"),
    "appell.f2_euler_integral": ("calls", "self_s", "failed"),
    "quadrature.integrate_01_2d": ("calls", "self_s"),
    "quadrature.cauchy_derivs_2d": ("calls", "self_s"),
    "pfaffian.horizontality_residual_f2": ("self_s",),
    "pfaffian.flatness_residual": ("self_s",),
    "factorization.invert_T_arrays": ("calls", "points", "self_s", "failed"),
    "factorization.periods_from_lambdas": ("calls", "self_s"),
    "special.ellint_K": ("calls", "points", "self_s"),
    "special.ellint_E": ("calls", "self_s"),
    "modular.theta2": ("calls", "self_s"),
    "modular.theta3": ("calls", "self_s"),
    "modular.theta4": ("calls", "self_s"),
    "modular.mirror_map": ("self_s",),
    "modular.inverse_mirror": ("self_s",),
    "modular.multiplier_probe": ("self_s",),
    "pfaffian.integrate_pfaffian": ("calls", "self_s", "failed"),
    "pfaffian.solve_ivp": ("calls", "nfev", "self_s"),
    "pfaffian.a_f2": ("calls", "self_s"),
    "pfaffian.a_2f1": ("calls", "self_s"),
    **{
        f"verify.suite_{s}": ("self_s",)
        for s in ("factorization", "bilinear", "mirror", "modular", "monodromy", "flatness")
    },
}
_UNITS = {"calls": "count", "points": "count", "failed": "count", "nfev": "count", "self_s": "s"}

PER_LAYER = {
    f"{layer}.{field}": _UNITS[field] for layer, fields in _LAYERS.items() for field in fields
}
PER_LAYER.update(
    {
        "import.traintrack_s": "s",
        "import.scipy_integrate_s": "s",
        "trace.item_s": "s",
        "trace.untraced_item_s": "s",
        "trace.other_self_s": "s",
        "trace.overhead_frac": "ratio",
    }
)


def _load_program():
    if not (SRC / "traintrack" / "__init__.py").is_file():
        sys.exit(f"bench: no traintrack sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import traintrack
    import traintrack.verify  # noqa: F401  (run_all is reached as traintrack.verify)

    if Path(traintrack.__file__).resolve().parent != SRC / "traintrack":
        sys.exit(f"bench: imported traintrack from {traintrack.__file__}, not {SRC}")
    return traintrack


def _fresh_setup(workload: str, seed: int, importtime: bool):
    """Wall time of a fresh interpreter importing traintrack and warming up.

    With ``importtime``, also the cumulative import times of traintrack and
    scipy.integrate from ``-X importtime`` (0 when not imported).
    """
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
        "import traintrack, workloads; "
        f"workloads.WORKLOADS[{workload!r}].warmup(traintrack, {seed})"
    )
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", code]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"bench: set-up process failed:\n{proc.stderr}")
    imports = {"traintrack": 0.0, "scipy.integrate": 0.0}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() in imports:
            imports[parts[2].strip()] = int(parts[1]) * 1e-6
    return wall, imports


class Tally:
    """Latencies and check results of the calls one loop made.

    ``best[k]`` is the fastest call on input k; ``first[k]`` its first
    output, or False when that call raised.
    """

    def __init__(self, n_inputs: int):
        self.latencies = []
        self.best = [float("inf")] * n_inputs
        self.first = [None] * n_inputs  # output of the first call on each input
        self.cases = 0  # attempted results; a verify_all call holds 266
        self.pass_cases = 0  # results in one pass over the inputs
        self.failed = 0  # results that miss what the benchmark expects
        self.by_design = 0  # results that fail as the program intends
        self.digits = float("inf")
        self.errors = {}

    def add(self, wl, oracle, k, ref, latency, out, exc):
        self.latencies.append(latency)
        self.best[k] = min(self.best[k], latency)
        first_pass = self.first[k] is None
        if exc is not None:
            cases, self.first[k] = 1, False
            self.failed += 1
            self.errors.setdefault(
                type(exc).__name__, "".join(traceback.format_exception(exc))
            )
        else:
            chk = wl.check(oracle, ref, out)
            cases = chk.count
            self.failed += chk.failed
            self.by_design += chk.by_design
            self.digits = min(self.digits, chk.digits)
            if first_pass:
                self.first[k] = out
            elif self.first[k] is False or not wl.same(self.first[k], out):
                # one input must give the same output, byte for byte, every time
                print(f"mismatch: two calls on input {k} disagree", file=sys.stderr)
                self.failed += cases
        self.cases += cases
        if first_pass:
            self.pass_cases += cases

    @property
    def pass_frac(self) -> float:
        return 1.0 - (self.failed + self.by_design) / self.cases


def _call(wl, tt, item):
    try:
        return wl.call(tt, item), None
    except Exception as exc:  # counted as a failed item, reported at the end
        return None, exc


def _loop(wl, tt, oracle, items, refs, seconds, min_passes, patch=None):
    """Closed loop: whole passes over the inputs, one call at a time.

    Runs until the timed calls add up to ``seconds`` and at least
    ``min_passes`` passes are done.  With a tracing patch, each input runs
    untraced and then traced, so both calls see the same machine load.
    """
    plain, traced = Tally(len(items)), Tally(len(items))
    busy = 0.0
    passes = 0
    while busy < seconds or passes < min_passes:
        for k, (item, ref) in enumerate(zip(items, refs)):
            t0 = time.perf_counter()
            out, exc = _call(wl, tt, item)
            latency = time.perf_counter() - t0
            plain.add(wl, oracle, k, ref, latency, out, exc)
            busy += latency
            if patch is not None:
                patch.install()
                t0 = time.perf_counter()
                out, exc = patch.tracer.request(k, _call, wl, tt, item)
                latency = time.perf_counter() - t0
                patch.remove()
                traced.add(wl, oracle, k, ref, latency, out, exc)
                busy += latency
                expected = plain.first[k]
                counted = out is None or expected is None or expected is False
                if not counted and not wl.same(expected, out):
                    print(f"mismatch: tracing changed the output on input {k}", file=sys.stderr)
                    traced.failed += 1
        passes += 1
    return plain, traced, passes


def _end_to_end(wl, tt, oracle, items, refs, args):
    setups = [_fresh_setup(wl.name, args.seed, False)[0] for _ in range(SETUP_PROCESSES)]
    wl.warmup(tt, args.seed)
    tally, _, passes = _loop(wl, tt, oracle, items, refs, args.seconds, MIN_PASSES)
    best = sorted(tally.best)
    n = len(best)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": tally.pass_cases / sum(best),
        "latency_ms_p50": 1e3 * statistics.median(best),
        "latency_ms_tail": 1e3 * best[n - 11],
        "digits_min": tally.digits,
        "pass_frac": tally.pass_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    fastest = f"each input at its fastest of {passes} calls"
    notes = {
        "setup_s": f"median of {SETUP_PROCESSES} fresh interpreters",
        "items_per_s": f"{tally.pass_cases} results per pass of {n} inputs, {fastest}",
        "latency_ms_p50": f"over {n} inputs, {fastest}",
        "latency_ms_tail": f"p{100.0 * (n - 10) / n:.1f} of {n} inputs, 10 beyond it",
        "pass_frac": (
            f"{tally.cases} results: {tally.by_design} failing by design, "
            f"{tally.failed} unexpected"
        ),
    }
    return metrics, notes, [tally]


def _per_layer(wl, tt, oracle, items, refs, args):
    from tracing import Patch, Tracer

    imports = [_fresh_setup(wl.name, args.seed, True)[1] for _ in range(SETUP_PROCESSES)]
    wl.warmup(tt, args.seed)
    tracer = Tracer()
    plain, traced, _ = _loop(wl, tt, oracle, items, refs, args.seconds, 1, Patch(tracer, tt))
    n = len(traced.latencies)
    metrics = {}
    for layer, fields in _LAYERS.items():
        totals = tracer.totals(layer)
        for field in fields:
            metrics[f"{layer}.{field}"] = totals[field] / n
    listed = sum(tracer.totals(layer)["self_s"] for layer, f in _LAYERS.items() if "self_s" in f)
    everything = sum(tracer.totals(name)["self_s"] for name in tracer.stats)
    traced_s, plain_s = sum(traced.latencies), sum(plain.latencies)
    metrics.update(
        {
            "import.traintrack_s": statistics.median(i["traintrack"] for i in imports),
            "import.scipy_integrate_s": statistics.median(i["scipy.integrate"] for i in imports),
            "trace.item_s": traced_s / n,
            "trace.untraced_item_s": plain_s / n,
            "trace.other_self_s": (everything - listed) / n,
            "trace.overhead_frac": traced_s / plain_s - 1.0,
        }
    )
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    notes = {
        "trace.item_s": f"mean of {n} calls; spans in {trace_path.relative_to(ROOT)}",
        "digits_min": f"{traced.digits!r} digits traced, {plain.digits!r} untraced",
        "pass_frac": f"{traced.pass_frac!r} traced, {plain.pass_frac!r} untraced",
    }
    return metrics, notes, [plain, traced]


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    tt = _load_program()
    import oracle

    wl = WORKLOADS[args.workload]
    items = wl.items(args.seed)
    refs = wl.reference(oracle, items)
    if args.trace:
        metrics, notes, tallies = _per_layer(wl, tt, oracle, items, refs, args)
        units = PER_LAYER
    else:
        metrics, notes, tallies = _end_to_end(wl, tt, oracle, items, refs, args)
        units = END_TO_END
    for tally in tallies:
        for name, message in tally.errors.items():
            print(f"error {name}:\n{message}", file=sys.stderr)
    failed = sum(t.failed for t in tallies)
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    for name in ("digits_min", "pass_frac"):
        if name in notes and name not in metrics:
            print(f"  {name}: {notes[name]}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metrics[name]!r} {unit}{note}")
    result = {
        "correct": failed == 0,
        "attempted": sum(t.cases for t in tallies),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
