"""Sweep benchmark for aopl-lint.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One run is one closed-loop process with a single client and no
threads: it generates the workload from the seed, then repeats an iteration
until ``--seconds`` have passed.  An untraced iteration

1. sets the policy up in process ``REPEATS`` times (read the sources,
   ``parse_files``, ``ground``, ``reify``), sweeps it once, then builds the
   report and renders it as text ``REPEATS`` times, and once as JSON;
2. runs ``aopl-lint analyze`` on the same files in a fresh child process and
   takes its wall time and peak RSS.

Between the phases, a fixed pure-Python kernel that does not touch the
package is timed (``calibrate``), and every reported time is scaled by it
to a reference machine speed; see the comment above ``untraced_run``.

Every iteration is checked: states examined and the set of distinct causes
against the workload's expected outcome, the child's exit code and its text
output against the in-process report, and the report digests against every
other iteration and every earlier run on the same inputs and ``src/``
tree.  An iteration failing a check counts in ``failed``.  The first
iteration warms up and is not timed.

With ``--trace 1`` each iteration also runs the in-process pipeline with
spans recorded around the package's public functions (see ``spans.py``),
checks that the traced reports equal the untraced ones, and reports the
per-layer metrics, the counter identity assignments = examined + rejected
and the tracing overhead.  Spans and every run's raw samples are written to
``.perfbench/`` at exit.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``error_rate`` is
``failed / attempted``.  The lines above it give every metric with its raw
samples' count, minimum, median, tail percentile and maximum, the report
digests and the environment (Python, nproc, CPU model, load average before
and after, ``src/`` line count).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
REPEATS = 10
# About the calibration kernel's floor on a quiet 2-vCPU Xeon; it only sets
# the scale of every reported time.
CALIBRATION_REFERENCE_S = 0.0075
CHILD_TIMEOUT_S = 60.0
SPAWN = Path(__file__).resolve().parent / "spawn.py"

from workloads import GENERATORS, generate


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# --- environment -----------------------------------------------------------


def _src_digest_and_lines() -> tuple[str, int]:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data + b"\0")
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# --- one iteration ---------------------------------------------------------


class Pipeline:
    """The ``analyze`` command's work, called through module attributes so
    that the traced run's wrappers see the calls."""

    def __init__(self, files: list[str], pins: list[str]) -> None:
        # import_module, because the package's ``reify`` attribute is the
        # function it re-exports, not the submodule.
        module = importlib.import_module
        self.analysis = module("aopl_lint.analysis")
        self.diagnostics = module("aopl_lint.diagnostics")
        self.grounding = module("aopl_lint.grounding")
        self.parser = module("aopl_lint.parser")
        self.reify = module("aopl_lint.reify")
        self.report = module("aopl_lint.report")
        self.states = module("aopl_lint.states")
        self.files = files
        self.pins = pins

    def setup(self):
        sources = [self.diagnostics.SourceFile.load(path) for path in self.files]
        result = self.parser.parse_files(sources)
        if not result.ok:
            raise CheckFailed("parse: " + "; ".join(str(d) for d in result.diagnostics))
        base = self.reify.reify(self.grounding.ground(result.policy, result.domain))
        return sources, base

    def run(self, repeats: int = 1, between=lambda: None) -> dict:
        """Set up, sweep and report; ``between`` runs before each phase."""
        between()
        setup_times = []
        for _ in range(repeats):
            start = perf_counter()
            sources, base = self.setup()
            setup_times.append(perf_counter() - start)

        between()
        start = perf_counter()
        pins = tuple(self.states.parse_pins(self.pins))
        result = self.analysis.sweep(base, self.analysis.SweepOptions(pins=pins))
        sweep_s = perf_counter() - start

        between()
        domain, policy = sources
        report_times = []
        for _ in range(repeats):
            start = perf_counter()
            report = self.report.build_report(
                result,
                domain_path=domain.path,
                domain_text=domain.text,
                policy_path=policy.path,
                policy_text=policy.text,
                pins=tuple(str(p) for p in pins),
            )
            text = self.report.render(report, "text")
            report_times.append(perf_counter() - start)
        json_text = self.report.render(report, "json")
        return {
            "setup_s": setup_times,
            "sweep_s": sweep_s,
            "report_s": report_times,
            "text": text,
            "json": json_text,
            "families": len(report.families),
            "instances": len(result.instances),
        }


class CheckFailed(Exception):
    pass


def causes_of(json_text: str) -> tuple[int, list]:
    """States examined and the sorted distinct causes of a JSON report."""
    payload = json.loads(json_text)
    causes = {
        json.dumps(
            [
                f["kind"],
                f["action"].lstrip("-").split("(", 1)[0],
                sorted(f["base_labels"]),
                f["urgency"],
                f["case"],
            ]
        )
        for f in payload["findings"]
    }
    return payload["states_examined"], sorted(json.loads(c) for c in causes)


def check_outcome(out: dict, expected: dict) -> None:
    states, causes = causes_of(out["json"])
    if states != expected["states_examined"]:
        raise CheckFailed(f"states examined {states}, expected {expected['states_examined']}")
    want = sorted(expected["causes"])
    if causes != want:
        raise CheckFailed(f"causes {causes}, expected {want}")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(files: list[str], pins: list[str], out_path: Path) -> dict:
    """``aopl-lint analyze`` in a fresh child: wall time, exit code, peak RSS."""
    command = [sys.executable, "-m", "aopl_lint.cli", "analyze", *files]
    for pin in pins:
        command += ["--pin", pin]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    spawner = [sys.executable, "-I", "-S", str(SPAWN), str(CHILD_TIMEOUT_S)]
    spawner += [str(out_path), str(out_path.with_suffix(".err")), "--", *command]
    done = subprocess.run(
        spawner, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 30
    )
    if done.returncode != 0:
        raise CheckFailed(f"spawn.py failed: {done.stderr.strip()}")
    outcome = json.loads(done.stdout)
    outcome["text"] = out_path.read_text(encoding="utf-8", errors="replace")
    return outcome


# --- digests shared across runs --------------------------------------------


class DigestStore:
    """Report digests per (workload, seed, inputs, src tree), kept across runs."""

    def __init__(self, path: Path, key: str) -> None:
        self.path = path
        self.key = key
        try:
            self.data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.data = {}
        self.known = self.data.get(key)

    def check(self, digests: dict) -> None:
        if self.known is None:
            self.known = digests
        elif digests != self.known:
            raise CheckFailed(f"report digests {digests} differ from {self.known}")

    def save(self) -> None:
        if self.known is None or self.key in self.data:
            return
        self.data[self.key] = self.known
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


# --- the runs --------------------------------------------------------------


class Run:
    def __init__(self, args, workdir: Path) -> None:
        self.args = args
        self.workload = generate(args.workload, args.seed)
        self.workload.write(workdir)
        self.expected = self.workload.expected
        self.files = [f"{args.workload}.dom", f"{args.workload}.aopl"]
        self.pipeline = Pipeline(self.files, self.workload.pins)
        self.workdir = workdir
        src_digest, self.src_lines = _src_digest_and_lines()
        inputs = sha(self.workload.domain + self.workload.policy + " ".join(self.workload.pins))
        self.digests = DigestStore(
            STATE_DIR / "digests.json", f"{args.workload}/{args.seed}/{inputs}/{src_digest}"
        )
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}
        self.families = None

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def require(self, names) -> None:
        """Exit without a result when every timed iteration failed."""
        missing = [name for name in names if not self.samples.get(name)]
        if missing:
            _fail(f"no samples for {missing}; failures: {self.failures}")

    def iterate(self, body) -> None:
        """Run ``body(timed)`` until the deadline; the first call warms up."""
        deadline = perf_counter() + self.args.seconds
        first = True
        while first or perf_counter() < deadline:
            gc.collect()
            self.attempted += 1
            try:
                body(not first)
            except CheckFailed as exc:
                self._failure(str(exc))
            except Exception:  # a crash in the program is a failed iteration
                if not self.failures:
                    traceback.print_exc(file=sys.stderr)
                self._failure(traceback.format_exc().strip().splitlines()[-1])
            first = False

    def _failure(self, reason: str) -> None:
        self.failed += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1
        print(f"perfbench: iteration failed: {reason}", file=sys.stderr)

    def untraced(self, timed: bool) -> dict:
        """One checked iteration; returns the in-process result."""
        calibration: list[float] = []
        out = self.pipeline.run(REPEATS, between=lambda: calibration.append(calibrate()))
        check_outcome(out, self.expected)
        digests = {"text": sha(out["text"]), "json": sha(out["json"])}
        self.digests.check(digests)
        self.families = out["families"]
        cli = run_cli(self.files, self.workload.pins, self.workdir / "report.txt")
        calibration.append(calibrate())
        if cli["timed_out"]:
            raise CheckFailed(f"aopl-lint analyze timed out after {CHILD_TIMEOUT_S} s")
        if cli["exit_code"] != self.expected["exit_code"]:
            raise CheckFailed(
                f"aopl-lint analyze exited {cli['exit_code']}, "
                f"expected {self.expected['exit_code']}"
            )
        if sha(cli["text"]) != digests["text"]:
            raise CheckFailed("aopl-lint analyze output differs from the in-process report")
        if timed:
            _, before_sweep, before_report, after_child = calibration
            sweep_speed = (before_sweep + before_report) / 2
            child_speed = (before_report + after_child) / 2
            in_process = min(out["setup_s"]) + out["sweep_s"] + min(out["report_s"])
            for value in calibration:
                self.add("calibration_s", value)
            for value in out["setup_s"]:
                self.add("setup_s", value)
            for value in out["report_s"]:
                self.add("report_s", value)
            self.add("sweep_s", out["sweep_s"])
            self.add("sweep_s/cal", out["sweep_s"] / sweep_speed)
            self.add("states_per_s", self.expected["states_examined"] / out["sweep_s"])
            self.add("wall_s", cli["wall_s"])
            self.add("wall_s/cal", cli["wall_s"] / child_speed)
            self.add("peak_rss_mb", cli["peak_rss_mb"])
            self.add("in_process_s", in_process)
            self.add("cli.startup_s", cli["wall_s"] - in_process)
            self.add("cli.startup_s/cal", (cli["wall_s"] - in_process) / child_speed)
        return out

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])

    def floor(self, name: str) -> float:
        return min(self.samples[name])

    def floored(self, name: str) -> float:
        """A short, repeated time: its floor at the calibration floor's speed."""
        return self.floor(name) * CALIBRATION_REFERENCE_S / self.floor("calibration_s")

    def paired(self, name: str) -> float:
        """A long time: the median of its samples, each at the speed of the
        calibrations just before and after it."""
        return self.median(f"{name}/cal") * CALIBRATION_REFERENCE_S


@dataclass(frozen=True)
class _Calibrant:
    name: str
    number: int


def calibrate() -> float:
    """Time a fixed pure-Python kernel that does not touch aopl_lint.

    Other tenants of the machine slow every process on it, in phases that
    last from a fraction of a second to minutes, and CPU time grows with
    wall time.  The kernel does the same kinds of work as the linter
    (frozen dataclasses, tuples and frozensets hashed into dicts and sets,
    a sort by string keys), so it slows down with it.
    """
    start = perf_counter()
    counts: dict = {}
    seen = set()
    for i in range(3000):
        item = _Calibrant(f"x{i % 97}", i % 13)
        key = (item, i & 7)
        seen.add(frozenset((key, (item.name, i))))
        counts[key] = counts.get(key, 0) + 1
    sorted(counts, key=lambda k: (k[0].name, k[0].number, k[1]))
    return perf_counter() - start


# Times are reported at a reference machine speed.  Other tenants' load
# changed this benchmark's speed by up to 2x, in phases from under a second
# to minutes, so raw times from two runs disagree.  Each time is scaled by
# the calibration kernel, in one of two ways, whichever gave the steadier
# figures across ten seeds:
#
# * a long time (the sweep, the child's wall time) is divided by the mean of
#   the calibrations timed just before and after it, and the run reports
#   the median of these ratios;
# * a short time, repeated REPEATS times per iteration (set-up, report), is
#   reported as its floor over the run divided by the calibration floor:
#   the work is deterministic, so samples above the floor are interference.
#
# Both are multiplied by CALIBRATION_REFERENCE_S, the kernel's time on a
# quiet machine.  The raw samples are printed beside each value.


def untraced_run(run: Run) -> dict:
    run.iterate(run.untraced)
    run.require(("calibration_s", "setup_s", "report_s", "sweep_s/cal", "wall_s/cal", "peak_rss_mb"))
    sweep_s = run.paired("sweep_s")
    return {
        "wall_s": (run.samples["wall_s"], "s", run.paired("wall_s")),
        "setup_s": (run.samples["setup_s"], "s", run.floored("setup_s")),
        "sweep_s": (run.samples["sweep_s"], "s", sweep_s),
        "report_s": (run.samples["report_s"], "s", run.floored("report_s")),
        "states_per_s": (run.samples["states_per_s"], "1/s", run.expected["states_examined"] / sweep_s),
        "peak_rss_mb": (run.samples["peak_rss_mb"], "MB", run.median("peak_rss_mb")),
    }


DETECTORS = (
    "inconsistency",
    "modality_conflicts",
    "underspecification",
    "ambiguity",
    "obligation_conflict",
)

# Per-layer metrics: name -> unit.  Values are per iteration (one set-up,
# sweep and report).  Layer times are floored like set-up time, the child's
# start-up time is paired like its wall time, and the other values are
# medians over the traced iterations.
LAYER_UNITS = {
    "parser.parse_files_s": "s",
    "parser.statements": "count",
    "model.validate_s": "s",
    "model.validate_calls": "count",
    "grounding.ground_s": "s",
    "grounding.ground_rules": "count",
    "grounding.state_atoms": "count",
    "grounding.action_atoms": "count",
    "reify.reify_s": "s",
    "reify.text_or_print_calls": "count",
    "reify.text_or_print_s": "s",
    "states.enumerate_s": "s",
    "states.assignments": "count",
    "states.examined": "count",
    "states.rejected": "count",
    "states.accept_ratio": "ratio",
    "states.executable_actions_s": "s",
    "engine.answer_sets_s": "s",
    "engine.answer_sets_calls": "count",
    "engine.models": "count",
    "engine.models_per_state_max": "count",
    "engine.entails_s": "s",
    "engine.entails_calls": "count",
    **{f"analysis.detect_{d}_s": "s" for d in DETECTORS},
    **{f"analysis.detect_{d}_calls": "count" for d in DETECTORS},
    "analysis.records": "count",
    "analysis.instances": "count",
    "analysis.dedupe_ratio": "ratio",
    "analysis.sweep_self_s": "s",
    "analysis.collapse_s": "s",
    "analysis.families": "count",
    "report.build_s": "s",
    "report.render_text_s": "s",
    "report.render_json_s": "s",
    "report.text_bytes": "B",
    "cli.startup_s": "s",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}


def layer_values(tracer, out: dict) -> dict[str, float]:
    """Per-layer values of one traced iteration."""
    totals, counters = tracer.totals, tracer.counters

    def total(name: str) -> float:
        return totals.get(name, [0, 0.0, 0.0])[1]

    def calls(name: str) -> int:
        return totals.get(name, [0, 0.0, 0.0])[0]

    assignments = counters.get("states.assignments", 0)
    examined = counters.get("states.examined", 0)
    records = counters.get("analysis.records", 0)
    values = {
        "parser.parse_files_s": total("parser.parse_files"),
        "parser.statements": counters.get("parser.statements", 0),
        "model.validate_s": total("model.validate"),
        "model.validate_calls": calls("model.validate"),
        "grounding.ground_s": total("grounding.ground"),
        "grounding.ground_rules": counters.get("grounding.ground_rules", 0),
        "grounding.state_atoms": counters.get("grounding.state_atoms", 0),
        "grounding.action_atoms": counters.get("grounding.action_atoms", 0),
        "reify.reify_s": total("reify.reify"),
        "reify.text_or_print_calls": calls("reify.text_or_print"),
        "reify.text_or_print_s": total("reify.text_or_print"),
        "states.enumerate_s": total("states.enumerate"),
        "states.assignments": assignments,
        "states.examined": examined,
        "states.rejected": counters.get("states.rejected", 0),
        "states.accept_ratio": examined / assignments if assignments else 0.0,
        "states.executable_actions_s": total("states.executable_actions"),
        "engine.answer_sets_s": total("engine.answer_sets"),
        "engine.answer_sets_calls": calls("engine.answer_sets"),
        "engine.models": counters.get("engine.models", 0),
        "engine.models_per_state_max": counters.get("engine.models_per_state_max", 0),
        "engine.entails_s": total("engine.entails"),
        "engine.entails_calls": calls("engine.entails"),
        "analysis.records": records,
        "analysis.instances": out["instances"],
        "analysis.dedupe_ratio": out["instances"] / records if records else 0.0,
        "analysis.sweep_self_s": totals.get("analysis.sweep", [0, 0.0, 0.0])[2],
        "analysis.collapse_s": total("analysis.collapse_families"),
        "analysis.families": out["families"],
        "report.build_s": total("report.build_report"),
        "report.render_text_s": total("report.render_text"),
        "report.render_json_s": total("report.render_json"),
        "report.text_bytes": len(out["text"].encode("utf-8")),
    }
    for detector in DETECTORS:
        values[f"analysis.detect_{detector}_s"] = total(f"analysis.detect_{detector}")
        values[f"analysis.detect_{detector}_calls"] = calls(f"analysis.detect_{detector}")
    return values


def check_counters(values: dict, expected: dict) -> None:
    """Counter identity and the construction's closed forms."""
    if values["states.assignments"] != values["states.examined"] + values["states.rejected"]:
        raise CheckFailed(
            f"states.assignments {values['states.assignments']} != states.examined "
            f"{values['states.examined']} + states.rejected {values['states.rejected']}"
        )
    for counter, key in (
        ("states.examined", "states_examined"),
        ("states.assignments", "assignments"),
        ("grounding.ground_rules", "ground_rules"),
        ("grounding.state_atoms", "state_atoms"),
        ("grounding.action_atoms", "action_atoms"),
    ):
        if values[counter] != expected[key]:
            raise CheckFailed(f"{counter} {values[counter]}, expected {expected[key]}")


def traced_run(run: Run) -> dict:
    import spans

    tracer = spans.Tracer()

    def body(timed: bool) -> None:
        out = run.untraced(timed)
        tracer.begin_run(run.attempted)
        first_span = len(tracer.start)
        with spans.installed(tracer):
            traced = run.pipeline.run()
        if (traced["text"], traced["json"]) != (out["text"], out["json"]):
            raise CheckFailed("traced report differs from the untraced report")
        values = layer_values(tracer, traced)
        check_counters(values, run.expected)
        if timed:
            for name, value in values.items():
                run.add(name, value)
            run.add("trace.spans", len(tracer.start) - first_span)
            traced_s = traced["setup_s"][0] + traced["sweep_s"] + traced["report_s"][0]
            run.add("trace.overhead", traced_s / run.samples["in_process_s"][-1] - 1)

    try:
        run.iterate(body)
    finally:
        STATE_DIR.mkdir(exist_ok=True)
        tracer.write(STATE_DIR / f"spans-{run.args.workload}-{run.args.seed}.tsv")
    run.require(("calibration_s", "cli.startup_s/cal", "trace.overhead", *LAYER_UNITS))
    metrics = {
        name: (run.samples[name], unit, run.floored(name) if unit == "s" else run.median(name))
        for name, unit in LAYER_UNITS.items()
    }
    metrics["cli.startup_s"] = (run.samples["cli.startup_s"], "s", run.paired("cli.startup_s"))
    return metrics


# --- output ----------------------------------------------------------------


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    beyond = len(values) - 10
    if beyond < 1:
        return "-"
    return f"p{100 * beyond // len(values)} {sorted(values)[beyond - 1]:.5g}"


def main() -> int:
    parser = argparse.ArgumentParser(description="aopl-lint sweep benchmark")
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "aopl_lint" / "__init__.py").is_file():
        _fail(f"no aopl_lint package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    try:
        import aopl_lint  # noqa: F401
    except Exception as exc:
        _fail(f"cannot import aopl_lint: {exc!r}")

    load_before = os.getloadavg()
    STATE_DIR.mkdir(exist_ok=True)
    workdir = STATE_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    cwd = os.getcwd()
    try:
        run = Run(args, workdir)
        os.chdir(workdir)
        metrics = traced_run(run) if args.trace else untraced_run(run)
        run.digests.save()
        samples = STATE_DIR / f"samples-{args.workload}-{args.seed}-{args.trace}.json"
        samples.write_text(json.dumps(run.samples), encoding="utf-8")
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    load_after = os.getloadavg()

    print(
        f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
        f"{run.attempted} iterations ({run.attempted - 1} timed), {run.failed} failed, "
        f"error_rate {run.failed / run.attempted:.4f}"
    )
    print(
        f"  calibration: floor {run.floor('calibration_s'):.6g} s, median "
        f"{run.median('calibration_s'):.6g} s, n={len(run.samples['calibration_s'])}; "
        f"reference {CALIBRATION_REFERENCE_S} s"
    )
    header = f"  {'metric':38s} {'value':>11s} {'unit':5s} {'n':>4s} {'raw min':>11s}"
    print(header + f" {'raw median':>11s} {'raw tail':>16s} {'raw max':>11s}")
    for name, (values, unit, value) in metrics.items():
        print(
            f"  {name:38s} {value:11.5g} {unit:5s} {len(values):4d} {min(values):11.5g} "
            f"{statistics.median(values):11.5g} {tail(values):>16s} {max(values):11.5g}"
        )
    for reason, count in sorted(run.failures.items()):
        print(f"  failure x{count}: {reason}")
    print(
        f"check: states_examined {run.expected['states_examined']} (closed form), "
        f"causes {len(run.expected['causes'])}, families {run.families}, "
        f"text sha256 {(run.digests.known or {}).get('text')}, "
        f"json sha256 {(run.digests.known or {}).get('json')}"
    )
    env = {
        "python": platform.python_version(),
        "nproc": _nproc(),
        "cpu": _cpu_model(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "src_lines": run.src_lines,
        "max_rss_mb_bench": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("env: " + json.dumps(env))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (_, unit, value) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
