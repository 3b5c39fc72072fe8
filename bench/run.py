"""Benchmark of choosekit: one workload per run, one JSON result line.

    python3 bench/run.py --workload {frontier,check,blocking,selftest,all}
                         --seed N --seconds S --trace {0,1} [--results DIR]

Run from the root of a source checkout; choosekit is imported from ./src.
The run times whole passes of the workload in rounds (2 for frontier, 6 for
check, 4 for blocking, 4 for selftest) of about --seconds / rounds each, each
round repeating the first round's inputs, and checks each pass after its
timer stops.  Before each round it sets up afresh (import of choosekit,
inputs of the first pass, warm-up), at least SETUPS times in all.
With --trace 1 it then runs the same passes once more with spans around
every call into choosekit and reports per-layer figures.

Timings are in reference seconds (see speed.py): each timed interval is
divided by how fast the machine ran in and around it, so that other tenants
of a shared machine do not move the figures.  setup_s is the median set-up,
and each timed call keeps its fastest round.

Every end-to-end figure that applies to the workload is printed as
`name value unit`; the last line is the JSON result, holding the figures
listed in BENCHMARK.json.  A results file with the environment, the figures
(also in wall-clock seconds), the input mix and the first problems found
goes to bench/results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import spans
import speed
from workloads import WORKLOADS, Frontier

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Items a run needs before its p90 has ten items above it.
LATENCY_ITEMS = 100
#: Set-ups a run times at least, spread over its rounds; setup_s is the median.
SETUPS = 20
MODULES = ("model", "checker", "constructions", "amplify", "bounds", "indepset",
           "acceptance", "cli")

#: End-to-end figures that BENCHMARK.json does not gate, because they do not apply
#: to every workload or read 0 at the parent: (unit, better, bound).  The
#: paired comparison in compare.py judges them with these bounds.
REPORTED = {
    "item_p50_ms": ("ms", "lower", 0.15),
    "item_p90_ms": ("ms", "lower", 0.20),
    "decided_frac": ("ratio", "higher", 0.0),
    "fail_frac": ("ratio", "lower", 0.0),
}


def end_to_end_spec() -> dict:
    """name -> (unit, better, bound) of every end-to-end figure."""
    with open(ROOT / "BENCHMARK.json") as fh:
        gated = json.load(fh)["end_to_end"]
    spec = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in gated}
    spec.update(REPORTED)
    return spec


def fresh_import():
    """Import choosekit from scratch, so set-up pays for module-level work."""
    for name in [m for m in sys.modules if m == "choosekit" or m.startswith("choosekit.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"choosekit.{m}") for m in MODULES})


def git_commit():
    """HEAD of the checkout; None outside git (no search above the checkout)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_section(wl, set_up, seed, seconds, tracer, rounds=1, passes=None):
    """Whole passes until the timed work of the first round reaches
    seconds / rounds in reference seconds (or `passes` passes), then the
    same passes again in each further round.  `set_up()` runs before each
    round and returns the choosekit modules to use.  Inputs are made and
    outputs checked outside the timer.

    The first round holds at least LATENCY_ITEMS items where item
    percentiles are reported.  `timed[r][k]` holds (start, seconds) of each
    timed call of pass k in round r.
    """
    s = types.SimpleNamespace(seconds=0.0, passes=passes, timed=[], problems=[],
                              attempted=0, failed=0, decided=0)
    min_items = LATENCY_ITEMS if wl.latency else 1
    try:
        for r in range(rounds):
            ck = set_up()
            if tracer.enabled:
                wl.instrument(ck, tracer)
            s.timed.append([])
            k = 0
            while k < s.passes if s.passes is not None else (
                    s.seconds < seconds / rounds or s.attempted < min_items):
                inputs = wl.inputs(seed, k)
                items = wl.run_pass(ck, inputs, tracer)
                s.timed[r].append([(i.start, i.seconds) for i in items])
                # in reference seconds, so that load does not change the passes run
                s.seconds += sum(speed.reference_seconds(i.start, i.seconds) for i in items)
                if isinstance(wl, Frontier):
                    s.decided += Frontier.decided(items)
                per_item = wl.check(ck, inputs, items)
                s.attempted += len(per_item)
                s.failed += sum(bool(p) for p in per_item)
                s.problems += [p for p in per_item if p][: 20 - len(s.problems)]
                k += 1
            s.passes = k
    finally:
        if tracer.enabled:
            tracer.restore()
    s.rounds = rounds
    return s


def call_times(section, convert) -> list:
    """Each timed call's fastest round, after `convert(start, seconds)`.

    Reference seconds take out how much slower the machine ran the kernel;
    what is left is mostly contention that hits the program harder than the
    kernel, and that only ever adds time.
    """
    return [min(convert(*rnd[k][i]) for rnd in section.timed if i < len(rnd[k]))
            for k, calls in enumerate(section.timed[0]) for i in range(len(calls))]


def end_to_end(wl, setup, section, peak_rss_mb, convert) -> dict:
    """Figures of the untraced section with every interval passed through
    `convert(start, seconds)`; read once sampling has stopped."""
    times = call_times(section, convert)
    out = {
        "setup_s": statistics.median(convert(*t) for t in setup),
        "items_per_s": section.attempted / section.rounds / sum(times),
        "peak_rss_mb": peak_rss_mb,
        "fail_frac": section.failed / section.attempted,
    }
    if wl.latency:
        out["item_p50_ms"] = statistics.median(times) * 1e3
        out["item_p90_ms"] = spans.nearest_rank(times, 0.9) * 1e3
    if wl.name == "frontier":
        out["decided_frac"] = section.decided / section.attempted
    return out


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    rc = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--results", str(args.results)]
        print(f"== {name}", flush=True)
        rc = max(rc, subprocess.run(cmd, check=False).returncode)
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("frontier", "check", "blocking", "selftest", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "choosekit" / "__init__.py").is_file():
        print(f"error: no choosekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    budget_env = os.environ.pop("CHOOSEKIT_BUDGET", None)
    import numpy  # a dependency, loaded once before set-up is timed

    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "loadavg_start": os.getloadavg(), "python": platform.python_version(),
           "numpy": numpy.__version__, "commit": git_commit(),
           "platform": platform.platform(), "CHOOSEKIT_BUDGET": budget_env}
    started = time.time()
    # SIGTERM unwinds like an error, so the probe stops and the scratch directory goes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    speed.start()
    try:
        with tempfile.TemporaryDirectory(prefix="run-", dir=HERE) as workdir:
            wl = WORKLOADS[args.workload](workdir)
            setup = []
            modules = []

            def set_up():
                """Set up afresh, timed, SETUPS / rounds times; spread over
                the rounds, the set-ups meet different spells of load."""
                for _ in range(-(-SETUPS // wl.rounds)):
                    start = speed.clock()
                    modules[:] = [fresh_import()]
                    wl.inputs(args.seed, 0)
                    wl.warm_up(modules[0])
                    setup.append((start, speed.clock() - start))
                return modules[0]

            plain = run_section(wl, set_up, args.seed, args.seconds, spans.OFF,
                                rounds=wl.rounds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if args.trace:
                tracer = spans.Tracer()
                traced = run_section(wl, lambda: modules[0], args.seed, args.seconds, tracer,
                                     passes=plain.passes)
    finally:
        speed.stop()
    e2e = end_to_end(wl, setup, plain, peak_rss_mb, speed.reference_seconds)
    wall = end_to_end(wl, setup, plain, peak_rss_mb, lambda start, seconds: seconds)
    attempted = plain.attempted + (traced.attempted if args.trace else 0)
    failed = plain.failed + (traced.failed if args.trace else 0)
    spec = end_to_end_spec()
    for name, value in e2e.items():
        print(f"{args.workload:9s} {name:14s} {value:12.6g} {spec[name][0]}")
    kernel = speed.summary()
    if "kernel_median_s" in kernel:
        print(f"{args.workload:9s} {'speed':14s} {speed.REF_S / kernel['kernel_median_s']:12.6g} "
              f"x reference ({kernel['samples']} samples)")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if args.trace:
        ref_total = lambda section: sum(speed.reference_seconds(*t) for rnd in section.timed
                                        for calls in rnd for t in calls)
        overhead = ref_total(traced) / (ref_total(plain) / wl.rounds) - 1.0
        layers = spans.layer_metrics(tracer.spans, traced.passes, overhead)
        units = {name: unit for name, unit, _ in spans.per_layer_spec()}
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        result["metrics"] = {k: {"value": e2e[k], "unit": spec[k][0]}
                             for k in spec if k not in REPORTED}

    args.results.mkdir(parents=True, exist_ok=True)
    stem = args.results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started * 1000)}"
    env["loadavg_end"] = os.getloadavg()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "started_at": started, "env": env,
              "setup_runs_s": [t for _, t in setup], "passes": plain.passes,
              "timed_s": plain.seconds, "rounds": wl.rounds, "speed": kernel,
              "end_to_end": {k: {"value": v, "unit": spec[k][0]} for k, v in e2e.items()},
              "end_to_end_wall": {k: {"value": v, "unit": spec[k][0]} for k, v in wall.items()},
              "mix": getattr(wl, "mix", None), "problems": plain.problems[:20], **result}
    if args.trace:
        record["problems"] += traced.problems[:20]
        with open(f"{stem}.spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"results: {stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
