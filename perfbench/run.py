"""Benchmark of oblique-mv: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  ``--trace 0`` times repeated passes of the
workload untraced for ``--seconds`` and prints the end-to-end metrics;
``--trace 1`` adds one pass with every layer boundary wrapped and the
per-geometry Skorohod kernel table, and prints the per-layer metrics.
``all`` runs every workload in its own process and prints a table.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads, gates
and metric definitions are described in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
# BLAS and OpenMP pools pinned to one thread: two threads on two shared
# cores measure the scheduler, and pinning narrows the run-to-run spread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "OBLIQUE_MV_THREADS")
SETUP_PROBES = 3
SETUP_SAMPLES = 8          # reference-kernel samples before each probe and after the last
PROCESS_TIMEOUT_S = 170
MIN_PASSES = 3             # the median of fewer passes follows single slow ones


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment(seed):
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = "none"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.TimeoutExpired):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "oblique_mv").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={sys.version.split()[0]} "
            f"numpy={np.__version__} scipy={scipy.__version__} blas={blas!r} "
            f"threads=1 seed={seed} commit={commit} src_sha256={src.hexdigest()[:16]}")


def _setup_seconds(name, seed, workdir):
    """Median calibrated time of fresh processes that import and build the inputs.

    Reference-kernel samples are taken before each probe and after the
    last, and calibrate the probes' wall times as a pass's are.
    """
    import calibrate

    times, samples = [], []
    for i in range(SETUP_PROBES + 1):
        samples += [calibrate.reference_kernel() for _ in range(SETUP_SAMPLES)]
        if i == SETUP_PROBES:
            break
        probe_dir = workdir / f"setup{i}"
        probe_dir.mkdir(parents=True)
        cmd = [sys.executable, str(BENCH / "setup_probe.py"), "--workload", name,
               "--seed", str(seed), "--workdir", str(probe_dir)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd)
        # Popen.wait(timeout) polls in steps of up to 50 ms, which would
        # quantize the measurement; wait blocking and kill from a timer.
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
    factor = calibrate.factor(samples)
    return statistics.median(times) * factor, times, factor


class Runner:
    """Repeated passes of one workload with their gates and digests."""

    def __init__(self, workload, inputs, workdir):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.walls = []               # pass wall seconds, sampler time excluded
        self.factors = []             # each pass's calibration factor
        self.sampler = None
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = None
        self.digests = None

    def one_pass(self, label, tracer=None, sampler=None):
        """Time one pass; check it; return its wall seconds (None if it raised).

        With a ``sampler``, the reference kernel runs from a timer during the
        pass and the time its handler takes is left out of the wall time.
        """
        passdir = self.workdir / f"pass{len(self.walls)}-{label}"
        passdir.mkdir(parents=True)
        ops = self.workload.operations
        if tracer is not None:
            tracer.install()
        if sampler is not None:
            handled = sampler.handler_s
            sampler.start()
        try:
            start = time.perf_counter()
            results = self.workload.run(self.inputs, passdir)
            if sampler is not None:
                sampler.stop()
                start += sampler.handler_s - handled
            wall = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            self.attempted += len(ops)
            self.failed += len(ops)
            return None
        finally:
            if sampler is not None:
                sampler.stop()
            if tracer is not None:
                tracer.uninstall()
        if self.peak_rss_mb is None:
            self.peak_rss_mb = _peak_rss_mb()      # the workload's own peak, before gates
        first = self.digests is None
        if first:
            self.digests = {}
        for op in ops:
            self.attempted += 1
            try:
                digest = self.workload.digest(op, results[op])
                if first:
                    self.digests[op] = digest
                    gates = self.workload.gates(op, results[op])
                    print(f"  {label} {op} output_sha256 {digest}")
                else:
                    gates = [self.workload.same_output(digest, self.digests[op])]
            except Exception:
                traceback.print_exc()
                self.failed += 1
                continue
            ok = all(g.ok for g in gates)
            self.failed += not ok
            print(f"  {label} {op}: {'ok' if ok else 'FAILED'}; " + "; ".join(map(str, gates)))
        del results
        shutil.rmtree(passdir, ignore_errors=True)
        print(f"  {label} wall {wall:.4f} s")
        return wall

    def untraced(self, seconds, min_passes=MIN_PASSES):
        """Passes until the next one would take the total past ``seconds``.

        The total counts each pass with its digest check but without the
        first pass's gates, which run once whatever the run length.  At
        least ``min_passes`` run.  A ``calibrate.SpeedSampler`` samples the
        machine's speed during each pass, and the samples taken during a
        pass give that pass's calibration factor.
        """
        import calibrate

        self.sampler = calibrate.SpeedSampler()
        measured = 0.0
        while True:
            start = time.perf_counter()
            first_sample = len(self.sampler.samples)
            wall = self.one_pass(f"pass{len(self.walls) + 1}", sampler=self.sampler)
            if wall is None:
                break
            if len(self.sampler.samples) == first_sample:   # a pass shorter than the interval
                self.sampler.sample()
            samples = self.sampler.samples[first_sample:]
            self.walls.append(wall)
            self.factors.append(calibrate.factor(samples))
            print(f"  pass{len(self.walls)} reference kernel median "
                  f"{statistics.median(samples):.5f} s over {len(samples)} samples; "
                  f"calibration factor {self.factors[-1]:.4f}")
            cost = wall if len(self.walls) == 1 else time.perf_counter() - start
            measured += cost
            if len(self.walls) >= min_passes and measured + cost > seconds:
                break


def run_workload(workload, seed, seconds, trace):
    workdir = BENCH / "_work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_s = setup_runs = None
        if not trace:
            setup_s, setup_runs, setup_factor = _setup_seconds(workload.name, seed, workdir)
        print(f"perfbench workload={workload.name} seconds={seconds} trace={int(trace)}")
        print(f"env: {_environment(seed)}")
        runner = Runner(workload, workload.build(seed, workdir), workdir)
        if trace:
            runner.untraced(seconds / 2, min_passes=1)
        else:
            runner.untraced(seconds)
        if not runner.walls:
            return _result(runner, {})
        wall = statistics.median(runner.walls)
        q1, q3 = _quartiles(runner.walls)
        print(f"  measured wall median {wall:.4f} s over {len(runner.walls)} passes "
              f"(q1 {q1:.4f}, q3 {q3:.4f})")
        if trace:
            return _result(runner, _traced_metrics(runner, wall))
        samples = runner.sampler.samples
        s1, s3 = _quartiles(samples)
        print(f"  reference kernel median {statistics.median(samples):.5f} s over "
              f"{len(samples)} samples (q1 {s1:.5f}, q3 {s3:.5f})")
        calibrated = [w * f for w, f in zip(runner.walls, runner.factors)]
        wall = statistics.median(calibrated)
        q1, q3 = _quartiles(calibrated)
        print(f"  calibrated wall median {wall:.4f} s (q1 {q1:.4f}, q3 {q3:.4f})")
        sim_steps, other_steps = workload.particle_steps()
        metrics = {
            "wall_s": (wall, "s"),
            "particle_steps_per_s": ((sim_steps + other_steps) / wall, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (runner.peak_rss_mb, "MB"),
            "success_rate": (1.0 - runner.failed / runner.attempted, "ratio"),
        }
        print(f"  set-up measured wall: {', '.join(f'{t:.4f}' for t in setup_runs)} s; "
              f"calibration factor {setup_factor:.4f}")
        print(f"  error_rate {runner.failed / runner.attempted:g} "
              f"({runner.failed} of {runner.attempted} operations)")
        return _result(runner, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def _traced_metrics(runner, untraced_wall):
    import kernels
    from tracer import Tracer

    tracer = Tracer()
    traced_wall = runner.one_pass("traced", tracer)
    print("  spans:\n" + tracer.table())
    metrics = tracer.layer_metrics()
    sim_steps, _ = runner.workload.particle_steps()
    if metrics["mvsolver.particle_steps"][0] != sim_steps:
        print(f"  note: traced particle-steps {metrics['mvsolver.particle_steps'][0]} "
              f"differ from the workload's count {sim_steps}", file=sys.stderr)
    timings, checks = kernels.kernel_table()
    for geom, us in timings.items():
        c = checks[geom]
        metrics[f"mvsolver.skorohod_us.{geom}"] = (us, "us")
        print(f"  skorohod {geom}: {us:.1f} us/call; feasibility {c['feasibility']:.2e}, "
              f"linear {c['linear']:.2e}, cone {c['cone']:.2e}; "
              f"{c['failures']} of {kernels.POINTS} points break the contract")
    metrics["mvsolver.skorohod_contract_failures"] = (
        sum(c["failures"] for c in checks.values()), "count")
    overhead = 0.0 if traced_wall is None else traced_wall - untraced_wall
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def _result(runner, metrics):
    for key, (value, unit) in metrics.items():
        print(f"  {key:<40} {value:>16.6g} {unit}")
    return {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v if isinstance(v, int) else float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def run_all(names, seed, seconds, trace):
    """Every workload in its own fresh process; one table at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    error_rates = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        error_rates[name] = result["failed"] / result["attempted"]
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(f"\n{'workload.metric':<58} {'value':>16} unit")
    for key, metric in combined["metrics"].items():
        print(f"{key:<58} {metric['value']:>16.6g} {metric['unit']}")
    for name, rate in error_rates.items():
        print(f"{name + '.error_rate':<58} {rate:>16.6g} ratio")
    return combined


def main(argv=None):
    if not (ROOT / "src" / "oblique_mv" / "__init__.py").is_file():
        print(f"perfbench: no oblique_mv sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:            # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import oblique_mv
    import workloads

    if not Path(oblique_mv.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported oblique_mv from {oblique_mv.__file__}, not src/")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(list(workloads.WORKLOADS), args.seed, args.seconds, args.trace)
    else:
        result = run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                              args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
