#!/usr/bin/env python3
"""The specdag benchmark: three workloads, end-to-end metrics, a traced run.

Run from the root of a specdag checkout:

    python3 perfbench/run.py --workload async-2k --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

--trace 0 runs the workload through `specdag run --obs off` once per seed of
the run's seed panel, timing each process from outside, and reports the
end-to-end metrics. --trace 1 makes one untraced run and one traced run of
the panel's first seed: the traced run goes through perfbench/driver
(perfdriver), which makes the runner's calls itself with a span around each,
then probes each layer on the final state, and reports the per-layer
metrics. `--workload all` runs every workload in both modes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A run that fails any check counts as failed,
and any failure makes the exit status non-zero. Builds go to $CARGO_TARGET_DIR
(default .bench_build); run outputs go to .perfbench/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench")
# A run takes seconds; one this long has hung. Kept low enough that an
# invocation with one hung run still ends within three minutes.
RUN_TIMEOUT_S = 120


# Names and units of the workloads and metrics; the why of each workload and
# how it differs from its registry scenario are recorded there too.
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class Workload:
    seconds_per_seed: float     # run budget per panel seed: --seconds / this = seeds per run
    accuracy_floor: float       # final_accuracy must exceed this on every run
    pureness_above_base: bool   # pureness must exceed summary.base_pureness


# Keyed by workload name; the scenario spec is workloads/<name>.json. Floors
# sit well above chance (10-class 0.10; poets 1/24) and below the lowest of
# 100+ seeds measured while defining them (async-2k 0.183, clustered-90 0.661,
# poets-lstm 0.262): a slow-learning seed passes, a run that stops learning
# does not.
SETTINGS = {
    "async-2k": Workload(7.0, 0.14, False),
    "clustered-90": Workload(3.0, 0.40, True),
    "poets-lstm": Workload(2.5, 0.15, False),
}
WORKLOADS = {entry["name"]: SETTINGS[entry["name"]] for entry in BENCHMARK["workloads"]}

END_TO_END = [(metric["name"], metric["unit"]) for metric in BENCHMARK["end_to_end"]]
# Per-layer times come from the traced run's spans or from a probe on its
# final state; counts and ratios from the program's counters.
PER_LAYER = [(metric["name"], metric["unit"]) for metric in BENCHMARK["per_layer"]]

MIN_SPAN_COVERAGE = 0.95
# Set-up is timed on the panel's first seeds only (its cost hardly depends
# on the seed); perfdriver repeats them for at least a second.
SETUP_SEEDS = 3


class BenchError(Exception):
    """The benchmark cannot run here (not a checkout, build failed)."""


# --------------------------------------------------------------- building ---

def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build() -> tuple[Path, Path]:
    """Builds the CLI and perfdriver from this checkout's sources."""
    if not (Path("CMakeLists.txt").is_file() and Path("src").is_dir()):
        raise BenchError("run from the root of a specdag checkout (CMakeLists.txt and src/ missing)")
    out = build_dir()
    OUT_DIR.mkdir(exist_ok=True)
    log = OUT_DIR / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR / "driver"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", "specdag_cli", "perfdriver"])
    with open(log, "a") as sink:
        for step in steps:
            if subprocess.run(step, stdout=sink, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                raise BenchError("build failed (" + " ".join(step) + "):\n" + "\n".join(tail))
    return out / "specdag" / "specdag", out / "perfdriver"


# ------------------------------------------------------------- provenance ---

def source_digest() -> str:
    """Digest of the program's sources and the workload specs: what a series
    depends on, so repeated-seed series are only compared under one digest."""
    digest = hashlib.sha256()
    files = [Path("CMakeLists.txt"), *sorted(Path("src").rglob("*")),
             *sorted((BENCH_DIR / "workloads").glob("*.json"))]
    for path in files:
        if path.is_file():
            name = path.name if path.is_absolute() else str(path)
            digest.update(name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def cmake_cache(out: Path) -> dict:
    wanted = {"CMAKE_CXX_COMPILER", "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE",
              "CMAKE_BUILD_TYPE", "SPECDAG_ENABLE_OBS"}
    found = {}
    for line in (out / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        name = key.split(":")[0]
        if sep and name in wanted:
            found[name] = value
    return found


def git_state() -> dict:
    if not Path(".git").exists():
        return {"git_sha": None, "git_dirty": None}
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True)
    return {"git_sha": sha.stdout.strip() or None, "git_dirty": bool(status.stdout.strip())}


def provenance(driver: Path, spec: dict, seed: int) -> dict:
    info = json.loads(subprocess.run([str(driver), "info"], capture_output=True, text=True,
                                     check=True).stdout)
    cache = cmake_cache(driver.parent)
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True).stdout
    return {
        **git_state(),
        "source_digest": source_digest(),
        "compiler": compiler,
        "compiler_version": version.splitlines()[0] if version else None,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "cxx_flags": " ".join(filter(None, [cache.get("CMAKE_CXX_FLAGS"),
                                            cache.get("CMAKE_CXX_FLAGS_RELEASE")])),
        "SPECDAG_ENABLE_OBS": cache.get("SPECDAG_ENABLE_OBS"),
        "obs_compiled": info["obs_compiled"],
        "simd": info["simd"],
        "nproc": len(os.sched_getaffinity(0)),
        "threads": spec.get("threads") or len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# ------------------------------------------------------------------ runs ---

def spec_file(name: str) -> Path:
    return BENCH_DIR / "workloads" / f"{name}.json"


def panel_seeds(seed: int, seconds: int, workload: Workload) -> list[int]:
    """The run's seed panel: derived from --seed, sized by --seconds."""
    count = max(2, min(99, int(seconds // workload.seconds_per_seed)))
    return [seed * 100 + i for i in range(count)]


def normalized_series(path: Path) -> list[str]:
    """Series JSONL lines with the wall-clock field zeroed."""
    lines = []
    for line in path.read_text().splitlines():
        row = json.loads(line)
        if "mean_walk_seconds" in row:
            row["mean_walk_seconds"] = 0
        lines.append(json.dumps(row, sort_keys=True))
    return lines


def run_cli(cli: Path, spec_path: Path, spec: dict, seed: int, scratch: Path) -> dict:
    """One `specdag run`, timed from outside. Returns wall, rusage and output."""
    scratch.mkdir(parents=True, exist_ok=True)
    series = scratch / f"series-{seed}.jsonl"
    stdout_path = scratch / f"summary-{seed}.json"
    command = [str(cli), "run", str(spec_path), "--seed", str(seed), "--obs", "off", "--quiet",
               "--jsonl", str(series)]
    checkpoints = scratch / f"checkpoints-{seed}"
    if spec.get("checkpoint", {}).get("every_n_rounds", 0) > 0:
        command += ["--checkpoint-dir", str(checkpoints)]
    with open(stdout_path, "w") as stdout, open(scratch / f"stderr-{seed}.log", "w") as stderr:
        start = time.perf_counter()
        process = subprocess.Popen(command, stdout=stdout, stderr=stderr)
        deadline = start + RUN_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(process.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.perf_counter() > deadline:
                process.kill()
                pid, status, usage = os.wait4(process.pid, 0)
                break
            time.sleep(0.005)
        wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    shutil.rmtree(checkpoints, ignore_errors=True)
    run = {"seed": seed, "exit": process.returncode, "wall_s": wall,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "series": series, "summary": None}
    try:
        run["summary"] = json.loads(stdout_path.read_text())["summary"]
    except (ValueError, KeyError):
        pass
    return run


def check_run(run: dict, workload: Workload) -> list[str]:
    """The correctness checks of one untraced run; returns the failures."""
    if run["exit"] != 0:
        return [f"exit status {run['exit']}"]
    summary = run["summary"]
    if summary is None or "perf" not in summary:
        return ["no summary with perf counters on stdout"]
    failures = []
    if summary["dag_size"] != summary["perf"]["commits"] + 1:
        failures.append(f"dag_size {summary['dag_size']} != perf.commits "
                        f"{summary['perf']['commits']} + 1")
    if not summary["final_accuracy"] > workload.accuracy_floor:
        failures.append(f"final_accuracy {summary['final_accuracy']:.4f} not above the "
                        f"learning floor {workload.accuracy_floor}")
    if workload.pureness_above_base and not summary["pureness"] > summary["base_pureness"]:
        failures.append(f"pureness {summary['pureness']:.4f} not above base_pureness "
                        f"{summary['base_pureness']:.4f}")
    return failures


def check_series_repeats(name: str, run: dict, digest_key: str) -> list[str]:
    """Every run of one seed in this checkout must produce the same series."""
    store = OUT_DIR / "series-digests.json"
    digests = json.loads(store.read_text()) if store.is_file() else {}
    lines = normalized_series(run["series"])
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    seen = digests.setdefault(digest_key, {}).setdefault(name, {})
    previous = seen.setdefault(str(run["seed"]), digest)
    store.write_text(json.dumps(digests, indent=1, sort_keys=True))
    if previous != digest:
        return [f"series of seed {run['seed']} differs from an earlier run of the same seed"]
    return []


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def print_table(title: str, rows: list[tuple[str, str, list[float], float]]) -> None:
    print(title)
    print(f"  {'metric':<24} {'unit':<9} {'value':>14} {'p25':>12} {'p75':>12} {'n':>3}")
    for name, unit, samples, value in rows:
        q1, _, q3 = quartiles(samples)
        print(f"  {name:<24} {unit:<9} {value:>14.6g} {q1:>12.6g} {q3:>12.6g} {len(samples):>3}")


def run_end_to_end(name: str, workload: Workload, spec: dict, seed: int, seconds: int,
                   cli: Path, driver: Path, prov: dict) -> dict:
    spec_path = spec_file(name)
    seeds = panel_seeds(seed, seconds, workload)
    scratch = OUT_DIR / "runs" / f"{name}-seed{seed}"

    setup = json.loads(subprocess.run(
        [str(driver), "setup", "--spec", str(spec_path),
         "--seeds", ",".join(map(str, seeds[:SETUP_SEEDS]))],
        capture_output=True, text=True, check=True, timeout=RUN_TIMEOUT_S).stdout)["setup"]
    setup_s = [row["data_build_s"] + row["genesis_s"] for row in setup]
    setup_median = statistics.median(setup_s)

    runs, failures = [], []
    for run_seed in seeds:
        run = run_cli(cli, spec_path, spec, run_seed, scratch)
        problems = check_run(run, workload)
        if not problems:
            problems = check_series_repeats(name, run, prov["source_digest"])
        run["failures"] = problems
        failures += [f"seed {run_seed}: {problem}" for problem in problems]
        runs.append(run)

    good = [run for run in runs if not run["failures"]]
    samples = {
        "wall_s": [run["wall_s"] for run in good],
        "setup_s": setup_s,
        "steps_per_s": [run["summary"]["perf"]["prepares"] /
                        (run["wall_s"] - setup_median) for run in good],
        "peak_rss_mb": [run["peak_rss_mb"] for run in good],
        "final_accuracy": [run["summary"]["final_accuracy"] for run in good],
        "pureness": [run["summary"]["pureness"] for run in good],
    }
    # Times report the median, robust to the host's slow runs. Values the
    # seed fixes (memory, quality) report the mean over the seed panel, which
    # varies less from panel to panel.
    metrics, rows = {}, []
    for metric, unit in END_TO_END:
        values = samples[metric]
        if not values:
            continue
        if metric in ("peak_rss_mb", "final_accuracy", "pureness"):
            value = statistics.fmean(values)
        else:
            value = statistics.median(values)
        metrics[metric] = {"value": value, "unit": unit}
        rows.append((metric, unit, values, value))
    print_table(f"{name}: end-to-end over seeds {seeds[0]}..{seeds[-1]}", rows)
    return {"attempted": len(runs), "failed": len(runs) - len(good), "failures": failures,
            "metrics": metrics,
            "runs": [{k: v for k, v in run.items() if k != "series"} for run in runs],
            "setup": setup}


def run_traced(name: str, workload: Workload, spec: dict, seed: int, cli: Path, driver: Path,
               prov: dict) -> dict:
    spec_path = spec_file(name)
    run_seed = panel_seeds(seed, 0, workload)[0]
    scratch = OUT_DIR / "runs" / f"{name}-seed{seed}-trace"

    untraced = run_cli(cli, spec_path, spec, run_seed, scratch)
    failures = check_run(untraced, workload)
    if not failures:
        failures = check_series_repeats(name, untraced, prov["source_digest"])

    trace_dir = scratch / "trace"
    process = subprocess.run(
        [str(driver), "trace", "--spec", str(spec_path), "--seed", str(run_seed),
         "--out-dir", str(trace_dir)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    shutil.rmtree(trace_dir / "checkpoints", ignore_errors=True)
    traced = json.loads(process.stdout) if process.returncode == 0 else None
    trace_failures = []
    if traced is None:
        trace_failures.append(f"perfdriver exit status {process.returncode}: "
                              f"{process.stderr.strip()[-300:]}")
    else:
        if traced["dag_size"] != traced["commits"] + 1:
            trace_failures.append("traced dag_size != commits + 1")
        if not traced["store_roundtrip_ok"]:
            trace_failures.append("delta codec round trip changed a payload")
        coverage = traced["layers"]["trace.coverage"]
        if coverage < MIN_SPAN_COVERAGE:
            trace_failures.append(f"top-level spans cover {coverage:.3f} of the traced wall "
                                  f"(< {MIN_SPAN_COVERAGE})")
        if untraced["summary"] is not None:
            for key in ("final_accuracy", "dag_size", "pureness"):
                if traced[key] != untraced["summary"][key]:
                    trace_failures.append(f"traced {key} {traced[key]} != untraced "
                                          f"{untraced['summary'][key]}")
            if normalized_series(trace_dir / "series.jsonl") != normalized_series(untraced["series"]):
                trace_failures.append("traced series differs from the untraced run's")

    metrics = {}
    if traced is not None:
        layers = dict(traced["layers"])
        if untraced["summary"] is not None:
            untraced_wall = untraced["summary"]["wall_seconds"]
            layers["trace.overhead_s"] = traced["traced_wall_s"] - untraced_wall
            # The driver mirrors the runner's calls; runner work it does not
            # make shows here as a share below trace.coverage.
            layers["trace.runner_coverage"] = traced["top_level_s"] / untraced_wall
        for metric, unit in PER_LAYER:
            if metric in layers:
                metrics[metric] = {"value": layers[metric], "unit": unit}
        units = int(layers["sim.units"])
        tail_pct = traced["layers"].get("sim.unit_s.tail_pct", 50)
        print(f"{name}: traced seed {run_seed}, wall {traced['traced_wall_s']:.3f}s "
              f"(untraced {untraced['summary']['wall_seconds'] if untraced['summary'] else 'n/a'}s), "
              f"sim.unit_s.tail = p{tail_pct:.4g} of {units} units, "
              f"probes on {traced['probe_clients']} clients at {traced['probe_lanes']} lanes")
        print(f"  {'metric':<24} {'unit':<9} {'value':>14}")
        for metric, unit in PER_LAYER:
            if metric in metrics:
                print(f"  {metric:<24} {unit:<9} {metrics[metric]['value']:>14.6g}")
        print("  self time by span: " + ", ".join(
            f"{span}={seconds:.4g}s" for span, seconds in traced["self_s"].items()))

    all_failures = [f"untraced: {f}" for f in failures] + [f"traced: {f}" for f in trace_failures]
    return {"attempted": 2, "failed": int(bool(failures)) + int(bool(trace_failures)),
            "failures": all_failures, "metrics": metrics, "traced": traced,
            "untraced": {k: v for k, v in untraced.items() if k != "series"}}


def run_one(name: str, seed: int, seconds: int, trace: bool, cli: Path, driver: Path) -> dict:
    workload = WORKLOADS[name]
    spec = json.loads(spec_file(name).read_text())
    prov = provenance(driver, spec, seed)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if trace:
        result = run_traced(name, workload, spec, seed, cli, driver, prov)
    else:
        result = run_end_to_end(name, workload, spec, seed, seconds, cli, driver, prov)
    for failure in result["failures"]:
        print(f"CHECK FAILED [{name}] {failure}")
    record = {"workload": name, "trace": int(trace), "provenance": prov, **result}
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        cli, driver = build()
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    attempted = failed = 0
    metrics = {}
    for name, trace in runs:
        try:
            result = run_one(name, args.seed, args.seconds, trace, cli, driver)
        except (OSError, ValueError, KeyError, subprocess.SubprocessError) as error:
            print(f"CHECK FAILED [{name}] benchmark step failed: {error!r}")
            result = {"attempted": 1, "failed": 1, "metrics": {}}
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(runs) == 1 else f"{name}/"
        metrics.update({prefix + key: value for key, value in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
