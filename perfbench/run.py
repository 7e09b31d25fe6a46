"""Benchmark of the `nonembed` CLI: end-to-end timings, output checks and a
traced per-layer run.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 1 --trace 0

Run from the root of a checkout.  The program is run from `src/`, as
`nonembed <command>` would run it, with the default configuration.

--trace 0 (end to end): set-up is five cold `import nonembed.cli`
processes (median) plus, for export-roundtrip, one process that writes the
input grid.  Then whole rounds run until --seconds have passed (at least
one).  A round runs the workload's commands one at a time, each in a fresh
interpreter, timed from start to exit, and then checks every output.  Each
metric but setup_s is the median over the run's rounds, and each round's
figures go to standard error.

--trace 1 (per layer): the same set-up and loop, but a round first
replays the commands in this process through `nonembed.cli.main(argv)`,
with every layer boundary wrapped by the span recorder (`tracer.py`), and
checks that replay's outputs; then it runs the commands untraced, as
above.  The tracing overhead is the traced wall time minus the untraced
one, net of the cold import each untraced command pays.  Spans go to
`.perfbench_traces/`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  An operation is one command or one
check; a command fails when it exits with another status than the
workload allows, crashes or times out.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Outcome, g1_checks, roundtrip_checks, run_checks, verify_all_checks
from reference import ORACLE_JSON, oracle

ROOT = Path.cwd()
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
TRACES = ROOT / ".perfbench_traces"
CONFIG_SEED = 20260809      # RunConfig.seed: the program runs its default config
COMMAND_TIMEOUT = 150.0     # seconds, per command
IMPORT_REPEATS = 5          # cold imports per run; set-up counts their median
_POLL = 0.002               # seconds between exit polls of a timed command

MAKE_TAIL_GRID = """\
import sys
from nonembed.cli import PipelineContext, RunConfig
from nonembed.gridio import write_grid_csv
write_grid_csv(PipelineContext(RunConfig()).tail.field, sys.argv[1])
"""
CLI_ENTRY = "import sys; from nonembed.cli import main; sys.exit(main())"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Commands (CLI argv lists) and the checks of their outputs."""

    allowed_exit = (0,)

    def prepare(self, work: Path) -> float:
        """Set-up beyond the cold import; returns its wall seconds."""
        return 0.0

    def commands(self, out: Path) -> list:
        raise NotImplementedError

    def checks(self, out: Path, exit_codes: list, seed: int) -> list:
        raise NotImplementedError


class VerifyAll(Workload):
    # exit status 1 means some of the report's claims fail, which the
    # checks judge from the written values
    allowed_exit = (0, 1)

    def commands(self, out):
        return [["verify", "all", "--out", str(out)]]

    def checks(self, out, exit_codes, seed):
        return verify_all_checks(out, exit_codes[0], oracle(ROOT), seed, CONFIG_SEED)


class AssembleG1(Workload):
    def commands(self, out):
        return [["assemble", "g1", "--out", str(out)]]

    def checks(self, out, exit_codes, seed):
        return g1_checks(out, CONFIG_SEED)


class ExportRoundtrip(Workload):
    def prepare(self, work):
        self.src = work / "input" / "tail_field.csv"
        self.src.parent.mkdir(parents=True)
        res = run_process([sys.executable, "-c", MAKE_TAIL_GRID, str(self.src)],
                          work / "input" / "make.log")
        if res["status"] != 0:
            raise RuntimeError(f"writing the input grid failed: {res['error']}")
        return res["wall"]

    def commands(self, out):
        # the JSON must not land on the CSV's sidecar, and the CSV written
        # back gets a sidecar of its own
        return [["export", str(self.src), "--format", "json",
                 "--dst", str(out / "full.json")],
                ["export", str(out / "full.json"), "--format", "csv",
                 "--dst", str(out / "back" / "tail_field.csv")]]

    def checks(self, out, exit_codes, seed):
        return roundtrip_checks(self.src, out / "full.json",
                                out / "back" / "tail_field.csv",
                                oracle(ROOT)["K_star"], seed)


WORKLOADS = {"verify-all": VerifyAll, "assemble-g1": AssembleG1,
             "export-roundtrip": ExportRoundtrip}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_process(argv: list, log: Path) -> dict:
    """Run one process to its exit; wall seconds and its own peak RSS."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        timed_out = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - t0 > COMMAND_TIMEOUT and not timed_out:
                    proc.kill()
                    timed_out = True
                time.sleep(_POLL)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    error = "timed out" if timed_out else ""
    if proc.returncode != 0 and not timed_out:
        error = log.read_text(errors="replace")[-400:]
    return {"status": -1 if timed_out else proc.returncode, "wall": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime, "error": error}


def cold_import_seconds(work: Path) -> float:
    walls = []
    for k in range(IMPORT_REPEATS):
        res = run_process([sys.executable, "-c", "import nonembed.cli"],
                          work / f"import{k}.log")
        if res["status"] != 0:
            raise RuntimeError(f"import nonembed.cli failed: {res['error']}")
        walls.append(res["wall"])
    return statistics.median(walls)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def _op_name(argv: list) -> str:
    if argv[0] == "export":
        return f"export --format {argv[argv.index('--format') + 1]}"
    return " ".join(argv[:2])


def run_commands(wl: Workload, out: Path):
    """The workload's commands, each in a fresh interpreter: outcomes,
    exit codes, and the end-to-end figures of the round."""
    ops, codes = [], []
    figures = {"run_s": 0.0, "peak_rss_mb": 0.0, "cpu_s": 0.0}
    for k, argv in enumerate(wl.commands(out)):
        res = run_process([sys.executable, "-c", CLI_ENTRY, *argv],
                          out.parent / f"{out.name}-cmd{k}.log")
        codes.append(res["status"])
        ok = res["status"] in wl.allowed_exit
        ops.append(Outcome(_op_name(argv), ok, "" if ok else res["error"]))
        figures["run_s"] += res["wall"]
        figures["cpu_s"] += res["cpu_s"]
        figures["peak_rss_mb"] = max(figures["peak_rss_mb"], res["rss_mb"])
    return ops, codes, figures


def untraced_round(wl: Workload, out: Path, seed: int):
    ops, codes, figures = run_commands(wl, out)
    ops += run_checks(wl.checks(out, codes, seed))
    return ops, {"run_s": figures["run_s"], "peak_rss_mb": figures["peak_rss_mb"]}


def replay(wl: Workload, out: Path, main):
    """The workload's commands through main(argv) in this process:
    outcomes, exit codes and wall seconds."""
    ops, codes = [], []
    sink = io.StringIO()
    wall0 = time.perf_counter()
    for argv in wl.commands(out):
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        codes.append(code)
        ok = code in wl.allowed_exit
        ops.append(Outcome(_op_name(argv), ok,
                           "" if ok else f"exit {code}: {sink.getvalue()[-400:]}"))
    return ops, codes, time.perf_counter() - wall0


def traced_round(wl: Workload, out: Path, seed: int, import_s: float,
                 trace_file: Path):
    """Traced replay in this process, its checks, then the same commands
    untraced in fresh interpreters.  Each untraced command also pays a
    cold import, which the replay paid before it started."""
    import nonembed.cli as cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        ops, codes, traced_wall = replay(wl, out, cli.main)
    finally:
        tracer.uninstall()
    ops += run_checks(wl.checks(out, codes, seed))
    shutil.rmtree(out, ignore_errors=True)
    cmd_ops, codes, figures = run_commands(wl, out)
    ops += cmd_ops
    tracer.write(trace_file)
    metrics = tracer.metrics()
    metrics["cli.cpu_s"] = figures["cpu_s"]
    metrics["trace.overhead_s"] = traced_wall - (figures["run_s"]
                                                 - len(codes) * import_s)
    return ops, metrics


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

UNITS = {"run_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "B" if name.startswith("gridio.bytes") else "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="nonembed CLI benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = [f for f in (SRC / "nonembed" / "cli.py", ROOT / ORACLE_JSON)
               if not f.is_file()]
    if missing:
        print(f"error: run from a checkout of the repository; missing "
              f"{', '.join(str(m.relative_to(ROOT)) for m in missing)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    work = RUNS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops, per_round = [], []
    try:
        import_s = cold_import_seconds(work)
        setup = import_s + wl.prepare(work)
        if args.trace:
            sys.path.insert(0, str(SRC))
            import nonembed.cli  # noqa: F401  (before any timing)
        start = time.perf_counter()
        k = 0
        while True:
            out = work / f"round{k}"
            if args.trace:
                round_ops, m = traced_round(
                    wl, out, args.seed, import_s,
                    TRACES / f"{args.workload}-seed{args.seed}")
            else:
                round_ops, m = untraced_round(wl, out, args.seed)
            shutil.rmtree(out, ignore_errors=True)
            ops += round_ops
            per_round.append(m)
            print(f"round {k}: " + ", ".join(f"{key} {v:.4g}"
                                             for key, v in m.items()),
                  file=sys.stderr)
            k += 1
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUNS.rmdir()  # only when no other run is using it

    for op in ops:
        print(f"{'ok' if op.ok else 'FAILED'} {op.name}: {op.detail}",
              file=sys.stderr)
    metrics = {key: statistics.median(m[key] for m in per_round)
               for key in per_round[0]}
    if not args.trace:
        metrics["setup_s"] = setup
    failed = sum(not op.ok for op in ops)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
