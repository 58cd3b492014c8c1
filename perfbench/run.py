"""finfree benchmark: seeded workloads, output checks, end-to-end and per-layer metrics.

Run from the root of a source checkout (the program is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload limit-grid --seed 1790 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One run builds the workload's inputs from the seed, then runs whole passes
over its job list for ``--seconds`` seconds, and on until 5 passes have
run, in this process and thread (a closed loop: each op starts when the
previous one has been checked).  An untraced run times a fixed reference
loop next to every op and reports times in units of it (``ref``), so that
the host's speed cancels.  It prints a report, then as its last line a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run first times untraced passes for half of
``--seconds`` (the reference for the tracing overhead), then installs the
span tracer for the other half and writes the spans to ``perfbench/out/``.
``--workload all`` runs every workload untraced and then traced, each in a
fresh interpreter.

See perfbench/README.md for what each metric means and which layer should
move it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracer import LAYERS, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOADS = ("limit-grid", "oracle-exact", "poly-roots")
DEFAULT_SEED = 1790
DEFAULT_SECONDS = 30
SETUP_SAMPLES = 7
# fresh interpreters started and discarded before the timed set-up samples
SETUP_WARMUPS = 1
COLD_START_SAMPLES = 3
CALIB_SAMPLES = 5
# terms of the reference loop
REFERENCE_TERMS = 1500
# the reference loop's time on a 2-core Intel Xeon VM at its fastest;
# setup_s is given in seconds at this speed
NOMINAL_REFERENCE_S = 0.005
# each op's median needs a few samples
MIN_PASSES = 5


def import_program():
    """Import finfree from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import finfree

    where = Path(finfree.__file__).resolve().parent
    if where != SRC / "finfree":
        raise ImportError(f"finfree was imported from {where}, not from {SRC}")
    return finfree


# ---------------------------------------------------------------------------
# measurements taken in fresh interpreters
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from starting an interpreter to its inputs being ready: as
    measured, and in reference loops (each sample over the mean of the host
    speeds taken just before and just after it).

    The first ``SETUP_WARMUPS`` interpreters are not timed: they bring the
    files that set-up reads into the page cache, so every timed sample
    starts from the same state."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    wall, in_ref = [], []
    before = host_speed()
    for i in range(SETUP_WARMUPS + SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup child exited {child.returncode}")
        after = host_speed()
        if i >= SETUP_WARMUPS:
            wall.append(t1 - t0)
            in_ref.append((t1 - t0) / ((before + after) / 2))
        before = after
    return wall, in_ref


def measure_cold_start() -> list[float]:
    """Seconds for a fresh interpreter to run one small ``finfree`` command."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from finfree.cli import main; "
            "sys.exit(main(['partitions', '--n', '3', '--count-only']))")
    samples = []
    for _ in range(COLD_START_SAMPLES):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, check=True)
        samples.append(time.perf_counter() - t0)
        if done.stdout.strip() != "5":
            raise RuntimeError(f"cold-start command printed {done.stdout!r}")
    return samples


def reference_loop() -> float:
    """Seconds for a fixed pure-Python Fraction loop: the host's speed now.

    It calls nothing in finfree, so no change to the program moves it."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS + 1):
        total += Fraction(1, i)
    return time.perf_counter() - t0


def host_speed() -> float:
    """The median of three reference loops, in seconds."""
    return statistics.median(reference_loop() for _ in range(3))


def calibrate() -> list[float]:
    """Milliseconds of ``CALIB_SAMPLES`` reference loops in a row."""
    return [reference_loop() * 1e3 for _ in range(CALIB_SAMPLES)]


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

class Run:
    """Outcome of the passes of one run: timings, failures, verified ops."""

    def __init__(self):
        self.pass_times: list[float] = []
        self.op_times: list[float] = []
        self.per_op: dict[str, list[float]] = {}
        # (op name, latency or None when it failed, time with its check), in
        # the order run; in a paced run reference[i] was timed just before
        # samples[i] and reference[i + 1] just after it
        self.samples: list[tuple] = []
        self.reference: list[float] = []
        self.failures: dict[str, list] = {}
        self.attempted = 0
        self.verified_ops: set[int] = set()

    @property
    def failed(self) -> int:
        return sum(count for count, _ in self.failures.values())

    def record_failure(self, name: str, exc: BaseException) -> None:
        entry = self.failures.setdefault(name, [0, f"{type(exc).__name__}: {exc}"])
        entry[0] += 1


def run_op(op, run: Run, tracer=None, op_id: int = 0) -> None:
    run.attempted += 1
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        out = op.run()
        elapsed = time.perf_counter() - t0
        op.check(out)
    except Exception as exc:  # an op failing must not stop the run
        run.record_failure(op.name, exc)
        elapsed = None
    finally:
        cost = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = 0
    run.samples.append((op.name, elapsed, cost))
    if elapsed is None:
        return
    run.op_times.append(elapsed)
    run.per_op.setdefault(op.name, []).append(elapsed)
    run.verified_ops.add(op_id)


def run_passes(ops, seconds: float, run: Run, tracer=None, min_passes: int = 1,
               paced: bool = False) -> None:
    """Whole passes over the job list until ``seconds`` have gone by and
    ``min_passes`` passes have run.  A paced run times the reference loop
    before every op and once after the last one; a pass's time leaves the
    reference loops out."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        paced_s = 0.0
        for op in ops:
            if paced:
                run.reference.append(reference_loop())
                paced_s += run.reference[-1]
            run_op(op, run, tracer, run.attempted + 1)
        run.pass_times.append(time.perf_counter() - t0 - paced_s)
        if time.perf_counter() - start >= seconds and len(run.pass_times) >= min_passes:
            if paced:
                run.reference.append(reference_loop())
            return


def run_probes(probe_ops) -> list[tuple[str, str, float]]:
    results = []
    for op in probe_ops:
        t0 = time.perf_counter()
        try:
            op.check(op.run())
            outcome = "ok"
        except Exception as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        results.append((op.name, outcome, time.perf_counter() - t0))
    return results


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def op_medians(samples, reference=None) -> tuple[dict, dict]:
    """Each op's median latency (verified attempts) and median time with its
    check (every attempt) over the run.  Given the reference loops of a paced
    run, each sample is first divided by the mean of the reference loops
    timed just before and just after it."""
    latency, cost = {}, {}
    for i, (name, elapsed, spent) in enumerate(samples):
        host = 1.0 if reference is None else (reference[i] + reference[i + 1]) / 2
        cost.setdefault(name, []).append(spent / host)
        if elapsed is not None:
            latency.setdefault(name, []).append(elapsed / host)
    return ({name: statistics.median(v) for name, v in latency.items()},
            {name: statistics.median(v) for name, v in cost.items()})


def end_to_end_metrics(run: Run, setup_ref: list[float], peak_rss_mb: float) -> dict:
    """The timed metrics count time in reference loops (unit ``ref``): each
    op's wall time over the mean wall time of the reference loops timed just
    before and after it, so that the host's speed, which moves by up to 1.8x
    between minutes, cancels.  They are medians per op over the whole run:
    the ops of one job list differ in latency by up to 100x, so a pass time
    or a percentile over single samples jumps with whichever op a slow
    moment hit, and a percentile over single samples that falls between two
    ops flips between them from run to run.  ``setup_s`` is the median
    set-up time in reference loops, given in seconds at the host speed
    ``NOMINAL_REFERENCE_S``, for the same reason."""
    verified = len(run.op_times)
    latency, cost = op_medians(run.samples, run.reference)
    return {
        "pass_ref": metric(sum(cost.values()), "ref", len(run.pass_times)),
        "op_p50_ref": metric(percentile(list(latency.values()), 50), "ref", verified),
        "op_p90_ref": metric(percentile(list(latency.values()), 90), "ref", verified),
        "verified_ratio": metric(verified / run.attempted, "1", run.attempted),
        "setup_s": metric(statistics.median(setup_ref) * NOMINAL_REFERENCE_S, "s", len(setup_ref)),
        "peak_rss_mb": metric(peak_rss_mb, "MB", 1),
    }


def wall_clock_notes(run: Run, setup_wall: list[float]) -> list[str]:
    """The same figures in wall time, for a reader of this run; not metrics,
    because they move with the host's speed."""
    latency, cost = op_medians(run.samples)
    lat = list(latency.values())
    return [f"wall clock: pass {sum(cost.values()):.4f} s, op p50 "
            f"{percentile(lat, 50) * 1e3:.3f} ms, op p90 {percentile(lat, 90) * 1e3:.3f} ms, "
            f"set-up {statistics.median(setup_wall):.4f} s, "
            f"reference loop {statistics.median(run.reference) * 1e3:.3f} ms "
            f"(median of {len(run.reference)})"]


def per_layer_metrics(summary: dict, tracer, run: Run, traced_passes: int,
                      untraced_pass_s: float, cold: list[float], calib: list[float],
                      probe_failed: int) -> dict:
    names = summary["names"]
    k = traced_passes

    def busy(*span_names):
        return sum(names.get(n, {}).get("busy", 0.0) for n in span_names) / k

    def calls(*span_names):
        return sum(names.get(n, {}).get("calls", 0) for n in span_names) / k

    def items(name):
        return names.get(name, {}).get("items", 0) / k

    def ratio(num, den):
        return num / den if den else 0.0

    roots_spans = [s for s in tracer.spans if s[3].startswith("polycalc.roots_of.")]
    roots_ok = sum(1 for s in roots_spans if s[2] in run.verified_ops)
    enum = names.get("partitions.enumerate_partitions", {"busy": 0.0, "items": 0})
    traced_pass_s = statistics.fmean(run.pass_times)
    m = {
        "partitions.enumerate_partitions.items":
            metric(items("partitions.enumerate_partitions"), "count", k),
        "partitions.enumerate_partitions.us_per_item":
            metric(ratio(enum["busy"], enum["items"]) * 1e6, "us", k),
        "partitions.enumerate_by_type.items":
            metric(items("partitions.enumerate_by_type"), "count", k),
        "partitions.enumerate_noncrossing.kept_ratio":
            metric(ratio(items("partitions.enumerate_noncrossing"),
                         summary["noncrossing_visited"] / k), "1", k),
        "partitions.count_brute.busy_s":
            metric(busy("partitions.count_R.brute", "partitions.count_S",
                        "partitions.count_T", "partitions.count_join_full"), "s", k),
        "identities.s_bruteforce.busy_s": metric(busy("identities.s_bruteforce"), "s", k),
        "identities.s_mobius_route.busy_s": metric(busy("identities.s_mobius_route"), "s", k),
        "identities.composition_identity.busy_s":
            metric(busy("identities.composition_identity"), "s", k),
        "identities.faa_di_bruno_exp.busy_s":
            metric(busy("identities.faa_di_bruno_exp"), "s", k),
        "cumulants.cumulants_from_atilde.calls":
            metric(calls(*(f"cumulants.cumulants_from_atilde.{t}"
                           for t in ("exact", "mpf", "f64"))), "count", k),
        "cumulants.cumulants_from_atilde.exact.busy_s":
            metric(busy("cumulants.cumulants_from_atilde.exact"), "s", k),
        "cumulants.cumulants_from_atilde.mpf.busy_s":
            metric(busy("cumulants.cumulants_from_atilde.mpf"), "s", k),
        "cumulants.boxtimes_cumulants.busy_s":
            metric(busy("cumulants.boxtimes_cumulants"), "s", k),
        "polycalc.roots_of.f64.busy_s": metric(busy("polycalc.roots_of.f64"), "s", k),
        "polycalc.roots_of.mp.busy_s": metric(busy("polycalc.roots_of.mp"), "s", k),
        "polycalc.roots_of.attempted": metric(len(roots_spans) / k, "count", k),
        "polycalc.roots_of.verified_ratio":
            metric(ratio(roots_ok, len(roots_spans)), "1", k),
        "polycalc.boxplus.busy_s": metric(busy("polycalc.boxplus"), "s", k),
        "polycalc.from_roots.busy_s": metric(busy("polycalc.from_roots"), "s", k),
        "polycalc.normalized_coeffs.calls":
            metric(calls("polycalc.normalized_coeffs"), "count", k),
        "freelimits.sy_limit_t.busy_s": metric(busy("freelimits.sy_limit_t"), "s", k),
        "freelimits.nc_moments_from_cumulants.busy_s":
            metric(busy("freelimits.nc_moments_from_cumulants"), "s", k),
        "freelimits.lagrange_cumulants.busy_s":
            metric(busy("freelimits.lagrange_cumulants"), "s", k),
        "experiments.run_experiment.calls":
            metric(calls("experiments.run_experiment"), "count", k),
        "experiments.run_experiment.busy_s":
            metric(busy("experiments.run_experiment"), "s", k),
        "experiments.fit_rate.busy_s": metric(busy("experiments.fit_rate"), "s", k),
        "experiments.table_format.busy_s":
            metric(busy("experiments.table_format"), "s", k),
        "cli.main.calls": metric(calls("cli.main"), "count", k),
        "cli.main.busy_s": metric(busy("cli.main"), "s", k),
        "cli.cold_start_s": metric(statistics.median(cold), "s", len(cold)),
        "bench.self_s": metric(traced_pass_s - summary["root_busy"] / k, "s", k),
        "host.calib_ms": metric(statistics.median(calib), "ms", len(calib)),
        "trace.overhead_ratio":
            metric(statistics.median(run.pass_times) / untraced_pass_s, "1", k),
        "probe.failed": metric(probe_failed, "count", 1),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = metric(summary["layer_self"][layer] / k, "s", k)
    return m


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def host_facts(calib: list[float]) -> str:
    import mpmath
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (f"host: nproc={nproc} python={platform.python_version()} "
            f"mpmath={mpmath.__version__} mpmath_backend={mpmath.libmp.BACKEND} "
            f"numpy={numpy.__version__} calib_ms={statistics.median(calib):.2f}")


def print_report(args, run: Run, metrics: dict, probe_results, calib, notes) -> None:
    print(f"finfree benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(host_facts(calib))
    print(f"passes={len(run.pass_times)} attempted={run.attempted} failed={run.failed}")
    print("pass samples (s): " + " ".join(f"{t:.3f}" for t in run.pass_times))
    print(f"{'op':36s} {'verified':>8s} {'median_ms':>10s}")
    for name, times in run.per_op.items():
        print(f"{name:36s} {len(times):8d} {statistics.median(times) * 1e3:10.2f}")
    for name, (count, reason) in run.failures.items():
        print(f"FAILED {name} x{count}: {reason}")
    for name, outcome, seconds in probe_results:
        print(f"probe {name} ({seconds:.2f}s): {outcome}")
    print(f"{'metric':46s} {'value':>14s} {'unit':6s} samples")
    for name, m in metrics.items():
        print(f"{name:46s} {m['value']:14.6g} {m['unit']:6s} {m['samples']}")
    for note in notes:
        print(note)


def run_one(args) -> int:
    import_program()
    import workloads

    ops = workloads.build(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    run = Run()
    if args.trace:
        import finfree

        cold = measure_cold_start()
        reference = Run()
        run_passes(ops, args.seconds / 2, reference)
        run.failures = reference.failures
        tracer = Tracer(finfree)
        tracer.install()
        try:
            run_passes(ops, args.seconds / 2, run, tracer)
        finally:
            tracer.uninstall()
        run.attempted += reference.attempted
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        probe_results = run_probes(workloads.probes(args.workload))
        calib = calibrate()
        probe_failed = sum(1 for _, outcome, _ in probe_results if outcome != "ok")
        metrics = per_layer_metrics(summarize(tracer.spans), tracer, run, len(run.pass_times),
                                    statistics.median(reference.pass_times), cold, calib,
                                    probe_failed)
        layers_self = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
        notes = ["untraced pass samples (s): "
                 + " ".join(f"{t:.3f}" for t in reference.pass_times),
                 f"traced pass (mean) {statistics.fmean(run.pass_times):.4f} s = "
                 f"seven layers' self_s {layers_self:.4f} s + bench.self_s "
                 f"{metrics['bench.self_s']['value']:.4f} s"]
    else:
        setup_wall, setup_ref = measure_setup(args.workload, args.seed)
        run_passes(ops, args.seconds, run, min_passes=MIN_PASSES, paced=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probe_results = run_probes(workloads.probes(args.workload))
        calib = [t * 1e3 for t in run.reference]
        metrics = end_to_end_metrics(run, setup_ref, peak_rss_mb)
        notes = wall_clock_notes(run, setup_wall)

    print_report(args, run, metrics, probe_results, calib, notes)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each run in a fresh interpreter."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                raise RuntimeError(f"{workload} trace={trace} exited {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
