"""End-to-end benchmark of the ``llamp`` commands.

Usage (from the repository root)::

    python3 perfbench/run.py --workload queries-mid --seed 1 --seconds 30 --trace 0

One process replays a workload as a closed loop with one client: each
request is a real ``llamp`` command (``repro.cli.main``) issued only after
the previous one has finished and its answer has been checked against an
oracle (outside the timed section).  The seed fixes the order of the
requests in every pass; the library never sees it.  Reported times are
scaled by an interference probe (see :func:`probe` and the README).

``--trace 0`` reports the end-to-end metrics with unmodified library code.
``--trace 1`` alternates untraced passes with traced ones, in which the
library's public layer calls are wrapped (see ``tracing.py``), and reports
the per-layer metrics, the per-command times of the untraced passes and the
tracing overhead.  The last line of standard output is the result JSON; the
full record (environment, every sample, every span) is written to
``perfbench/results/``.
"""

from __future__ import annotations

import os

# pinned before numpy is imported; the pool's spawn workers inherit them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext, suppress
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPEATS = 5

#: a run that is still going after this many seconds is abandoned
DEADLINE_S = 170

#: iterations of the interference probe (a few milliseconds of bytecode)
PROBE_LOOPS = 200_000

#: probe seconds of the reference machine every reported time is scaled to
#: (the probe's time on an idle 2-vCPU Xeon VM, where this benchmark was made)
PROBE_REF_S = 0.008

#: end-to-end metrics of the untraced run: name -> unit
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: per-layer metrics of the traced run beyond ``tracing.LAYER_METRICS``
TRACE_EXTRA = {
    **{f"cli.{command}_s": "s" for command in workloads.COMMANDS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
}
PER_LAYER = {**TRACE_EXTRA, **tracing.LAYER_METRICS}


class DeadlineExceeded(BaseException):
    """Raised by the alarm; a ``BaseException`` so no request handler eats it."""


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def set_up(workload: workloads.Workload, work_dir: Path) -> list[dict]:
    """Set the workload up ``SETUP_REPEATS`` times; return each as a sample.

    One set-up is what a user pays before the first answer: a fresh
    interpreter importing the CLI, plus writing the workload's input files.
    The last set-up's inputs are the ones the run uses.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for i in range(SETUP_REPEATS):
        input_dir = work_dir / f"inputs-{i}"
        input_dir.mkdir()
        before = probe()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        workload.prepare(input_dir)
        samples.append({"seconds": time.perf_counter() - start, "probes": [before, probe()]})
    return samples


def probe() -> float:
    """Seconds of a fixed pure-Python loop.

    On a shared machine, other tenants slow this process down by up to 2x
    for seconds to minutes at a time (a core's sibling thread, caches and
    memory bandwidth are shared), and CPU time grows with wall time, so
    neither filters it out.  The probe gauges that slowdown right before
    and after each timed section.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return time.perf_counter() - start


def issue(request: workloads.Request, tracer: tracing.Tracer | None) -> dict:
    """Issue one request, time it, then check its answer and the shared memory."""
    from repro.artifacts import ArtifactStore
    from repro.lp.assembler import assembly_counts
    from repro.parallel import live_shared_segments

    gc.collect()
    segments = live_shared_segments()
    stats = ArtifactStore(request.cache_dir).stats() if tracer and request.cache_dir else None
    assemblies = sum(assembly_counts().values())
    envelopes = tracer.counts["parallel.unique_envelopes"] if tracer else 0
    code, stdout, error = 1, "", None
    probe_before = probe()
    start = time.perf_counter()
    try:
        with tracer.request(request.command) if tracer else nullcontext():
            code, stdout = workloads.run_llamp(request.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        error = f"exit {exc.code}"
    except Exception as exc:  # a failed request is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    probes = [probe_before, probe()]

    sample = {"slot": request.slot, "command": request.command, "seconds": seconds,
              "probes": probes, "traced": tracer is not None}
    if error is None and code != 0:
        error = f"exit {code}"
    if error is None:
        try:
            request.check(stdout)
        except workloads.OracleMismatch as exc:
            error = f"oracle mismatch: {exc}"
        except Exception as exc:  # an unreadable answer is a wrong answer
            error = f"unreadable answer: {type(exc).__name__}: {exc}"
    leaked = live_shared_segments() - segments
    if leaked:
        error = error or f"leaked shared memory segments {sorted(leaked)}"
        for name in leaked:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except FileNotFoundError:
                pass
    if tracer is not None:
        sample["lp.assemblies"] = sum(assembly_counts().values()) - assemblies
        sample["unique_envelopes"] = tracer.counts["parallel.unique_envelopes"] - envelopes
        if stats is not None:
            after = ArtifactStore(request.cache_dir).stats()
            sample["artifacts.new_entries"] = after["total_entries"] - stats["total_entries"]
            sample["artifacts.new_envelopes"] = (after["kinds"]["envelope"]["entries"]
                                                 - stats["kinds"]["envelope"]["entries"])
            sample["artifacts.bytes"] = after["total_bytes"] - stats["total_bytes"]
    if request.after is not None:
        request.after()
    sample["error"] = error
    return sample


def pass_layers(tracer: tracing.Tracer, samples: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    layers = tracing.span_times(tracer.spans)
    for name, unit in tracing.LAYER_METRICS.items():
        if unit == "count" and name in tracer.counts:
            layers[name] = float(tracer.counts[name])
    layers["lp.assemblies"] = float(sum(s["lp.assemblies"] for s in samples))
    layers["parallel.worker_rss_mb"] = tracer.maxima.get("parallel.worker_rss_mb", 0.0)
    stored = [s for s in samples if "artifacts.new_entries" in s]
    layers["artifacts.new_entries"] = float(sum(s["artifacts.new_entries"] for s in stored))
    layers["artifacts.bytes"] = float(sum(s["artifacts.bytes"] for s in stored))
    warm = [s for s in stored if s["command"] == "fleet_warm"]
    envelopes = sum(s["unique_envelopes"] for s in warm)
    if envelopes:
        layers["artifacts.hit_ratio"] = 1.0 - sum(s["artifacts.new_envelopes"] for s in warm) / envelopes
    return layers


def scaled(sample: dict) -> float:
    """A sample's seconds on the reference machine: its time scaled by the
    probe's reference time over the probe's mean time around it."""
    return sample["seconds"] * PROBE_REF_S / (sum(sample["probes"]) / len(sample["probes"]))


def median_by(samples: list[dict], key: str, measure=scaled) -> dict[str, float]:
    """Median ``measure`` of the samples per ``key`` value."""
    groups: dict[str, list[float]] = {}
    for s in samples:
        groups.setdefault(s[key], []).append(measure(s))
    return {value: median(times) for value, times in groups.items()}


def wall_seconds(samples: list[dict], measure=scaled) -> float:
    """Seconds to answer the workload's request list once: the sum over
    distinct requests of each one's median time."""
    return sum(median_by(samples, "slot", measure).values())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """Run one workload for ``seconds`` of timed requests; return its record."""
    import repro  # noqa: F401  (fail before set-up when the library is missing)

    work_dir = HERE / "work" / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    saved_tempdir, saved_env = tempfile.tempdir, os.environ.get("TMPDIR")
    # keep every temporary file (ingest spills, store writes) in the checkout
    tempfile.tempdir = str(work_dir)
    os.environ["TMPDIR"] = str(work_dir)
    try:
        workload = workloads.make_workload(name, size, work_dir)
        setups = set_up(workload, work_dir)
        rng = random.Random(seed)
        samples: list[dict] = []
        layer_passes: list[dict] = []
        spans: list[list] = []
        timed, pass_index = 0.0, 0
        origin = time.perf_counter()
        # a traced run alternates untraced (even) and traced (odd) passes and
        # ends on whole passes; an untraced run may stop inside one
        while timed < seconds or (trace and pass_index < 2):
            traced = trace and pass_index % 2 == 1
            tracer = tracing.Tracer() if traced else None
            pass_samples = []
            with tracing.installed(tracer) if traced else nullcontext():
                for request in workload.requests(rng, pass_index):
                    if timed >= seconds and not trace and not request.needs_previous:
                        break
                    sample = issue(request, tracer)
                    sample["pass"] = pass_index
                    pass_samples.append(sample)
                    timed += sample["seconds"]
            if traced:
                layer_passes.append(pass_layers(tracer, pass_samples))
                spans.extend([pass_index, s.name, s.start - origin, s.end - origin, s.parent]
                             for s in tracer.spans)
            samples.extend(pass_samples)
            pass_index += 1
    finally:
        tempfile.tempdir = saved_tempdir
        if saved_env is None:
            os.environ.pop("TMPDIR")
        else:
            os.environ["TMPDIR"] = saved_env
        shutil.rmtree(work_dir, ignore_errors=True)
        with suppress(OSError):  # other runs may still use it
            work_dir.parent.rmdir()

    failed = [s for s in samples if s["error"] is not None]
    untraced = [s for s in samples if not s["traced"]]
    by_command = median_by(untraced, "command")
    commands = {command: by_command.get(command, 0.0) for command in workloads.COMMANDS}
    if trace:
        traced_wall = wall_seconds([s for s in samples if s["traced"]])
        untraced_wall = wall_seconds(untraced)
        metrics = {
            **{f"cli.{command}_s": value for command, value in commands.items()},
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead": traced_wall / untraced_wall - 1.0,
            **tracing.layer_metrics(layer_passes),
        }
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": median(scaled(s) for s in setups),
            "wall_s": wall_seconds(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    return {
        "workload": name,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "attempted": len(samples),
        "failed": len(failed),
        "fail_frac": len(failed) / len(samples),
        "passes": pass_index,
        "setups": setups,
        "command_median_s": commands,
        "raw_wall_s": wall_seconds(untraced, measure=lambda s: s["seconds"]),
        "raw_setup_s": median(s["seconds"] for s in setups),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "failures": [{"slot": s["slot"], "pass": s["pass"], "error": s["error"]} for s in failed],
        "samples": samples,
        "spans": spans,
    }


def result_line(record: dict) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed request seconds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, *, size: str = "full") -> int:
    args = parse_args(argv)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), size)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for failure in record["failures"]:
        print(f"FAILED {failure['slot']} (pass {failure['pass']}): {failure['error']}",
              file=sys.stderr)
    print(f"{args.workload}: {record['passes']} passes, {record['attempted']} requests, "
          f"fail_frac={record['fail_frac']:.3g}; record {path.relative_to(ROOT)}")
    print(", ".join(f"{k}={v['value']:.4g}" for k, v in record["metrics"].items()))
    print(json.dumps(result_line(record)))
    return 0


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    ``llamp fleet`` joins its pool workers itself; what outlives them is the
    ``multiprocessing`` resource tracker, a child started with the first
    spawn worker that would otherwise end only after this process has, and
    then linger unreaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    with suppress(ChildProcessError):
        resource_tracker._resource_tracker._stop()


def _deadline(signum, frame):
    raise DeadlineExceeded(f"run exceeded {DEADLINE_S} s")


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    try:
        code = main()
    finally:
        signal.alarm(0)
        stop_children()
    sys.exit(code)
