"""minrep benchmark: fixed lists of CLI commands, run as a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Each workload is a fixed list of ``minrep`` commands.  They run through
``minrep.cli.main`` in this one single-threaded process, one client, each
command starting when the previous one returns.  Every command runs with
``--stable --format json`` and is gated on its report: it fails if it
raises, exits non-zero, returns an empty report or any record with
``passed: false``.  Calls are timed here; the reports' ``wall_ms`` is
never read.

With ``--trace 0`` the benchmark runs passes over the list until
``--seconds`` have elapsed and prints the end-to-end metrics.  Their
times are calibrated (see calib.py): wall times scaled by a fixed probe
sampled while the work runs, so that they measure the program and not the
shared host's speed at the moment; the raw wall times are in the info
line.  With ``--trace 1`` it runs each command once plain and once traced
(see layertrace.py), then the layer kernels (layerkernels.py) and the
tracer's fidelity self-test, and prints the per-layer metrics.  The last line of
stdout is the result object; the line before it carries provenance and
the raw samples.  Both, and the spans of a traced run, are also written
under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
STABLE_JSON = ["--stable", "--format", "json"]
SETUP_SAMPLES = 15   # taken in rounds between passes, so they span the run
SETUP_ROUND = 3
SELFTEST_ARGV = ["check-relations", "--algebra", "su22"]
# The probes run after the timed import, so that the probe's own imports
# are not taken off the set-up time.
SETUP_CODE = ("import time; t = time.perf_counter(); import minrep.cli as c; "
              "c.build_parser(); s = time.perf_counter() - t; import calib; "
              "print(s, calib.calibrated_once(s), c.__file__)")


# dense-forms: criteria 10 and 07, dominated by linalg.mat_mul over QI on
#   mostly-zero so*(8) matrices; the mechanism workload for sparse products.
# polynomial-modes: criteria 08 and 09, all Poly/QIS/QI and no mat_mul;
#   the control for matrix-product work, the mechanism for scalar rings.
# wick-fock: criteria 01, 05, 06 and the Fock cross-check; elimination
#   rather than products, sparse Fock matrices, Fraction-only Wick algebra.
WORKLOADS = {
    "dense-forms": [
        ["check-relations", "--algebra", "so-star", "--n", "2"],
        ["closure", "--family", "so-star", "--k", "2", "--flavors", "1", "--pair-limit", "100"],
    ],
    "polynomial-modes": [
        ["massless"],
        ["harmonics", "--nmax", "7"],
    ],
    "wick-fock": [
        ["table1"],
        ["check-bilocal", "--L", "4", "--trials", "50", "--seed", "{seed}"],
        ["decompose", "--algebra", "so-star", "--n", "2", "--level", "5"],
        ["closure", "--family", "sp-real", "--k", "2", "--flavors", "2", "--level", "4"],
    ],
}


def workload_commands(name: str, seed: int) -> list[list[str]]:
    return [[a.format(seed=seed % 2 ** 64) for a in argv] for argv in WORKLOADS[name]]


def _gate(rc, text: str) -> tuple[int, str | None]:
    """(check records verified, failure reason or None) for one command."""
    if rc != 0:
        return 0, f"exit {rc}"
    try:
        records = json.loads(text)["records"]
    except (ValueError, KeyError, TypeError):
        return 0, "unparsable report"
    if not records:
        return 0, "empty report"   # Report.ok is vacuously true here
    if not all(r.get("passed") is True for r in records):
        return 0, "record with passed: false"
    return len(records), None


def run_command(cli, argv, tracer=None, run_id="", calibrate=False):
    """Run one command; return its time, check count, failure reason and digest.

    With `calibrate` the probe samples the run: "seconds" is then the wall
    time less the probes' own, and "ref_seconds" that time calibrated.
    """
    buf = io.StringIO()
    span = contextlib.nullcontext()
    if tracer is not None:
        tracer.run_id = run_id
        span = tracer.span(f"cli.{argv[0]}")
    sampler = calib.Sampler() if calibrate else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with sampler, span, contextlib.redirect_stdout(buf):
            rc = cli.main(argv + STABLE_JSON)
    except Exception:   # a crash is a failed command, not a failed benchmark
        traceback.print_exc()
        rc = "raised"
    timing = {"seconds": time.perf_counter() - start}
    if calibrate:
        timing = {"seconds": sampler.work_s, "ref_seconds": sampler.calibrated()}
    text = buf.getvalue()
    checks, failure = _gate(rc, text)
    if failure:
        print(f"FAILED {' '.join(argv)}: {failure}", file=sys.stderr)
    return {"argv": argv, **timing, "checks": checks, "failure": failure,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """(wall, calibrated) seconds to import minrep.cli and build the parser,
    each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, ref_seconds, path = proc.stdout.split()
        if Path(path).resolve().parent != (SRC / "minrep").resolve():
            raise RuntimeError(f"set-up imported minrep from {path}")
        out.append((float(seconds), float(ref_seconds)))
    return out


def provenance(seed: int, first_pass) -> dict:
    """What the result was measured on, and digests of the commands' outputs."""
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                    capture_output=True, text=True).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "minrep").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "git_commit": commit, "src_sha256": src.hexdigest(),
            "seed": seed,
            "stable_json_sha256": {" ".join(c["argv"]): c["sha256"] for c in first_pass}}


def _tally(passes) -> tuple[int, int, bool]:
    """(commands attempted, commands failed, outputs repeat byte for byte)."""
    attempted = sum(len(p) for p in passes)
    failed = sum(c["failure"] is not None for p in passes for c in p)
    repeat = all([c["sha256"] for c in p] == [c["sha256"] for c in passes[0]]
                 for p in passes)
    return attempted, failed, repeat


def end_to_end(cli, commands, seconds: float):
    measure_setup(1)   # writes the bytecode caches every later interpreter reads
    setup = measure_setup(SETUP_ROUND)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append([run_command(cli, argv, calibrate=True) for argv in commands])
        if len(setup) < SETUP_SAMPLES:
            setup += measure_setup(SETUP_ROUND)
    while len(setup) < SETUP_SAMPLES:
        setup += measure_setup(SETUP_ROUND)
    attempted, failed, repeat = _tally(passes)
    pass_s = [sum(c["ref_seconds"] for c in p) for p in passes]
    checks = sum(c["checks"] for c in passes[0])
    median = statistics.median(pass_s)
    metrics = {
        "pass_s": median,
        "checks_per_s": checks / median,
        "checks": checks,
        "setup_s": statistics.median(ref for _, ref in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"passes": len(passes), "pass_s_samples": pass_s,
            "pass_wall_s_samples": [sum(c["seconds"] for c in p) for p in passes],
            "setup_s_samples": [ref for _, ref in setup],
            "setup_wall_s_samples": [wall for wall, _ in setup],
            "command_s_samples": [[p[i]["ref_seconds"] for p in passes]
                                  for i in range(len(commands))],
            "failed_ratio": failed / attempted}
    return metrics, attempted, failed, repeat, passes[0], info


def per_layer(cli, commands, spans_path: Path):
    import layerkernels
    import layertrace

    # Each command runs plain and then traced, back to back, so that the
    # overhead ratio compares runs made under the same machine load.
    tracer = layertrace.Tracer()
    plain, traced = [], []
    for i, argv in enumerate(commands):
        plain.append(run_command(cli, argv))
        with tracer.active():
            traced.append(run_command(cli, argv, tracer, f"{i}:{argv[0]}"))
    selftest = layertrace.fidelity_selftest(SELFTEST_ARGV)
    metrics = tracer.layer_metrics()
    for c in plain:
        key = f"cli.{c['argv'][0]}.wall_s"
        metrics[key] = metrics.get(key, 0.0) + c["seconds"]
    for name in {argv[0] for argvs in WORKLOADS.values() for argv in argvs}:
        metrics.setdefault(f"cli.{name}.wall_s", 0.0)
    metrics["trace.overhead_ratio"] = (sum(c["seconds"] for c in traced)
                                       / sum(c["seconds"] for c in plain))
    metrics.update(layerkernels.kernel_metrics())
    OUT.mkdir(exist_ok=True)
    tracer.dump(spans_path)
    attempted, failed, repeat = _tally([plain, traced])
    selftest_ok = not selftest["count_mismatches"] and selftest["stable_identical"]
    info = {"selftest": selftest, "spans_file": str(spans_path.relative_to(ROOT)),
            "spans": len(tracer.spans),
            "waste_by_command": {" ".join(c["argv"]): tracer.waste(f"{i}:{c['argv'][0]}")
                                 for i, c in enumerate(traced)}}
    return metrics, attempted + 1, failed + (not selftest_ok), repeat, plain, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "minrep" / "cli.py").is_file():
        print(f"error: no minrep sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    from minrep import cli
    if Path(cli.__file__).resolve().parent != (SRC / "minrep").resolve():
        print(f"error: minrep imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    commands = workload_commands(args.workload, args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, attempted, failed, correct, first, info = per_layer(
            cli, commands, OUT / f"{stem}-spans.json")
    else:
        metrics, attempted, failed, correct, first, info = end_to_end(
            cli, commands, args.seconds)
    if set(metrics) != {m["name"] for m in wanted}:
        print(f"error: metrics out of step with BENCHMARK.json: "
              f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}", file=sys.stderr)
        return 3
    result = {
        "correct": bool(correct) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    info = {"workload": args.workload, "commands": commands,
            "provenance": provenance(args.seed, first), **info}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps({"info": info, "result": result},
                                                 indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
