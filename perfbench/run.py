"""distillens benchmark: end-to-end and per-layer metrics on seeded workloads.

    python3 perfbench/run.py --workload align-zipf --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from any directory; the program is the checkout's `src/distillens`,
used from source. Each run generates the workload's inputs from
`--seed`, then:

* `--trace 0` runs the workload's pipeline through the real CLI
  (`python3 -m distillens ...`), one subcommand process at a time, for
  `--seconds`, and reports the end-to-end metrics: medians over the
  pipeline repetitions of each step's time, normalised by the reference
  program (reference.py) timed before and after it.
* `--trace 1` runs the pipeline once through the CLI as the reference,
  then replays it in-process with spans at the layer boundaries
  (tracing.py) and reports the per-layer metrics.

Every output is checked (check.py). The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; a full record
with the run context goes to perfbench/.work/results/. The exit code is
1 when an output check or a subcommand failed, and 2 when the checkout
holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import check
from workloads import WORKLOADS, prepare_dirs

perf_counter = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
DEFAULT_SEED = 0
DEFAULT_SECONDS = 30
MIN_PASSES = 3
PROCESS_TIMEOUT_S = 150
SETUP_CODE = "import distillens.cli"
REFERENCE = os.path.join(HERE, "reference.py")
# The reference program's time on a quiet host of the machine this was
# built on; normalised timings are in seconds at that host speed.
REFERENCE_S = 0.17


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if ".bytes_" in name:
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# run context: read-only looks at the host, to tell its noise from a regression


def _steal_ticks() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[:1] == ["cpu"] and len(fields) > 8 else None


def _git_commit() -> str | None:
    # the ceiling keeps git from finding a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class RunContext:
    def __init__(self):
        self.loadavg_before = os.getloadavg()
        self.steal_before = _steal_ticks()

    def finish(self) -> dict:
        steal_after = _steal_ticks()
        return {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_commit": _git_commit(),
            "loadavg_before": self.loadavg_before,
            "loadavg_after": os.getloadavg(),
            "steal_ticks": None if self.steal_before is None or steal_after is None
            else steal_after - self.steal_before,
        }


# ---------------------------------------------------------------------------
# subprocesses


def _env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), "PYTHONHASHSEED": "0"}


def run_process(argv: list[str], stderr_path: str,
                timeout: float = PROCESS_TIMEOUT_S) -> tuple[float, float, int]:
    """Run to completion; wall seconds, peak RSS in MB and exit code."""
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _time_process(argv: list[str], log_dir: str, name: str) -> float:
    wall, _, code = run_process(argv, os.path.join(log_dir, f"{name}.err"))
    if code != 0:
        raise RuntimeError(f"{name} ({' '.join(argv[1:])}) exited with {code}")
    return wall


def time_setup(log_dir: str) -> float:
    return _time_process([sys.executable, "-c", SETUP_CODE], log_dir, "setup")


def time_reference(log_dir: str) -> float:
    return _time_process([sys.executable, REFERENCE], log_dir, "reference")


def normalised(wall: float, ref_before: float, ref_after: float) -> float:
    """`wall` in seconds at the host speed where the reference takes REFERENCE_S."""
    return wall * 2.0 * REFERENCE_S / (ref_before + ref_after)


def run_pipeline(workload, in_dir: str, out_dir: str, log_dir: str,
                 after_each=None) -> dict:
    """One closed-loop pass: every invocation, each waiting for the last.

    `after_each`, when given, is called after every invocation.
    """
    runs = {}
    for invocation in workload.invocations:
        argv = [sys.executable, "-m", "distillens", *invocation.argv(in_dir, out_dir)]
        stderr_path = os.path.join(log_dir, f"{invocation.name}.err")
        wall, rss_mb, code = run_process(argv, stderr_path)
        runs[invocation.name] = {"wall_s": wall, "rss_mb": rss_mb, "exit": code,
                                 "stderr_path": stderr_path}
        if after_each is not None:
            after_each()
    return {"runs": runs}


def check_pipeline(workload, in_dir: str, out_dir: str, runs: dict,
                   reference: dict[str, str] | None) -> tuple[dict[str, list[str]], dict[str, str]]:
    """Failures per invocation, and the outputs' digests.

    Without a reference every invariant is checked; with one, the
    outputs must match its digests byte for byte.
    """
    failures: dict[str, list[str]] = {}
    actual: dict[str, str] = {}
    for invocation in workload.invocations:
        run = runs[invocation.name]
        errors = [] if run["exit"] == 0 else [f"{invocation.name}: exit code {run['exit']}"]
        outputs = invocation.outputs()
        try:
            actual.update(check.digests(out_dir, outputs))
        except OSError as exc:
            errors.append(f"{invocation.name}: {exc}")
        if not errors:
            if reference is None:
                with open(run["stderr_path"], encoding="utf-8", errors="replace") as fh:
                    stderr = fh.read()
                errors += check.check_invocation(invocation.name, in_dir, out_dir, stderr)
            else:
                errors += check.compare_digests({n: reference[n] for n in outputs}, actual)
        if errors:
            failures[invocation.name] = errors
    return failures, actual


# ---------------------------------------------------------------------------
# a run


def _summary(values: list[float], unit: str, pick=statistics.median) -> dict:
    return {"value": pick(values), "unit": unit, "n": len(values),
            "median": statistics.median(values), "min": min(values), "max": max(values)}


class WorkloadRun:
    def __init__(self, name: str, seed: int, seconds: float, record_digests: bool = False):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.record_digests = record_digests
        self.base = os.path.join(WORK, f"{name}-seed{seed}")
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def _generate(self) -> dict:
        shutil.rmtree(self.base, ignore_errors=True)
        self.in_dir, self.out_dir = prepare_dirs(self.base)
        return self.workload.generate(self.seed, self.in_dir)

    def _pipeline(self, after_each=None) -> dict:
        """Run and check one pipeline pass; the first is checked in full."""
        result = run_pipeline(self.workload, self.in_dir, self.out_dir, self.base, after_each)
        first = not self.digests
        failures, actual = check_pipeline(self.workload, self.in_dir, self.out_dir,
                                          result["runs"], None if first else self.digests)
        if first and self.seed == DEFAULT_SEED and not self.record_digests:
            recorded = check.load_recorded_digests(self.workload.name)
            for invocation in self.workload.invocations:
                errors = check.compare_digests(
                    {n: recorded[n] for n in invocation.outputs()}, actual)
                if errors:
                    failures.setdefault(invocation.name, []).extend(errors)
        if first:
            self.digests = actual
        self.attempted += len(result["runs"])
        for errors in failures.values():
            self.failures.append("; ".join(errors))
        result["failed"] = sorted(failures)
        return result

    def _timed_pass(self) -> dict:
        """Set-up, then one pipeline pass, with the reference program before
        and after every step; each step's time is normalised by the two
        reference times around it (see README.md)."""
        refs = [time_reference(self.base)]
        setup = time_setup(self.base)
        refs.append(time_reference(self.base))
        result = self._pipeline(after_each=lambda: refs.append(time_reference(self.base)))
        result["setup_s"] = normalised(setup, refs[0], refs[1])
        for k, run in enumerate(result["runs"].values(), start=1):
            run["s"] = normalised(run["wall_s"], refs[k], refs[k + 1])
        result["reference_s"] = refs
        return result

    def end_to_end(self) -> dict:
        sizes = self._generate()
        time_setup(self.base)  # compiles bytecode, as a user's first run would
        passes = []
        deadline = perf_counter() + self.seconds
        while len(passes) < MIN_PASSES or perf_counter() < deadline:
            passes.append(self._timed_pass())

        main, others = self.workload.main, self.workload.others
        metrics = {
            "wall_s": _summary([sum(r["s"] for r in p["runs"].values()) for p in passes], "s"),
            "setup_s": _summary([p["setup_s"] for p in passes], "s"),
            "peak_rss_mb": _summary(
                [max(r["rss_mb"] for r in p["runs"].values()) for p in passes], "MB", max),
            "main_cmd_s": _summary(
                [sum(p["runs"][n]["s"] for n in main) for p in passes], "s"),
            "other_cmds_s": _summary(
                [sum(p["runs"][n]["s"] for n in others) for p in passes], "s"),
        }
        detail = {
            "raw_wall_s": _summary(
                [sum(r["wall_s"] for r in p["runs"].values()) for p in passes], "s"),
            "reference_s": _summary([t for p in passes for t in p["reference_s"]], "s"),
        }
        for invocation in self.workload.invocations:
            name = invocation.name
            detail[f"{name}_s"] = _summary([p["runs"][name]["s"] for p in passes], "s")
            detail[f"{name}_rss_mb"] = _summary(
                [p["runs"][name]["rss_mb"] for p in passes], "MB", max)
        detail["failed_share"] = {"value": len(self.failures) / self.attempted, "unit": "ratio",
                                  "n": self.attempted}
        return {"sizes": sizes, "metrics": metrics, "subcommands": detail,
                "passes": passes}

    def per_layer(self) -> dict:
        sizes = self._generate()
        self._pipeline()  # the reference outputs, checked in full
        record_path = os.path.join(self.base, "trace.json")
        argv = [sys.executable, os.path.join(HERE, "tracing.py"), "--workload",
                self.workload.name, "--base", self.base, "--seconds", str(self.seconds),
                "--result", record_path]
        _, _, code = run_process(argv, os.path.join(self.base, "tracing.err"),
                                 timeout=self.seconds + PROCESS_TIMEOUT_S)
        if code != 0:
            with open(os.path.join(self.base, "tracing.err"), encoding="utf-8",
                      errors="replace") as fh:
                raise RuntimeError(f"traced replay exited with {code}:\n{fh.read()}")
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)

        for name in record["missing"]:
            print(f"{self.workload.name}: {name} no longer fits the program; left out of the trace",
                  file=sys.stderr)
        self.attempted += len(record["exit_codes"])
        self.failures += [f"in-process exit code {c}" for c in record["exit_codes"] if c != 0]
        for out in ("out-inprocess", "out-traced"):
            out_dir = os.path.join(self.base, out)
            try:
                actual = check.digests(out_dir, sorted(self.digests))
            except OSError as exc:
                self.failures.append(f"{out}: {exc}")
                continue
            self.failures += [f"{out}: {e}" for e in check.compare_digests(self.digests, actual)]

        layers = record["per_iteration"]
        metrics = {name: _summary([it[name] for it in layers], per_layer_unit(name), min)
                   for name in layers[0]}
        traced, plain = record["traced_walls_s"], record["untraced_walls_s"]
        metrics["trace.overhead_s"] = {
            "value": min(traced) - min(plain), "unit": "s", "n": len(traced),
            "median": statistics.median(traced) - statistics.median(plain)}
        diagnostics = {"selection.nonzero_pick_share": 0.0,
                       "selection.constant_column_share": 0.0}
        scores = os.path.join(self.out_dir, "scores.csv")
        if os.path.exists(scores):
            diagnostics = check.selection_diagnostics(scores)
        for name, value in diagnostics.items():
            metrics[name] = _summary([value], "ratio", min)

        spans_path = os.path.join(
            WORK, "results", f"{self.workload.name}-seed{self.seed}.spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "replays": record["spans"]}, fh)
        return {
            "sizes": sizes,
            "metrics": metrics,
            "tracing": {
                "missing": record["missing"],
                "accounting_gap_s": record["accounting_gap_s"],
                "untraced_walls_s": record["untraced_walls_s"],
                "traced_walls_s": record["traced_walls_s"],
                "spans_path": os.path.relpath(spans_path, ROOT),
            },
        }

    def cleanup(self) -> None:
        if not self.failures:
            shutil.rmtree(self.base, ignore_errors=True)


def _print_metrics(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{workload:13s} {name:40s} {m['value']:>14.6g} {m['unit']:6s} n={m['n']}",
              file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record the default seed's output digests in digests.json")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "distillens", "cli.py")):
        print(f"perfbench: no program to measure: {ROOT}/src/distillens/cli.py is missing",
              file=sys.stderr)
        return 2
    if args.write_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--write-digests needs the default seed {DEFAULT_SEED}")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    combined: dict[str, dict] = {}
    attempted = failed = 0
    recorded = {}
    for name in names:
        context = RunContext()
        run = WorkloadRun(name, args.seed, args.seconds, args.write_digests)
        result = run.per_layer() if args.trace else run.end_to_end()
        result.update(workload=name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                      attempted=run.attempted, failures=run.failures,
                      context=context.finish())
        path = os.path.join(WORK, "results", f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        _print_metrics(name, {**result["metrics"], **result.get("subcommands", {})})
        for failure in run.failures:
            print(f"{name}: FAILED {failure}", file=sys.stderr)
        run.cleanup()
        attempted += run.attempted
        failed += len(run.failures)
        recorded[name] = run.digests
        for metric, m in result["metrics"].items():
            key = metric if len(names) == 1 else f"{name}/{metric}"
            combined[key] = {"value": m["value"], "unit": m["unit"]}

    if args.write_digests and not failed:
        with open(check.DIGESTS_PATH, "w", encoding="utf-8") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
