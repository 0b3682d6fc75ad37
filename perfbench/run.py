"""wallnorm benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload torus-cli --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One client process issues every request, one at a time, and waits for each
(a closed loop with one client).  One-shot requests run the CLI's ``main``
in a child forked from this process, which has imported wallnorm but
touched no map, so every request starts with caches as cold as a fresh
``wallnorm`` process and interpreter start-up is not part of its time.
Session requests are library calls on maps this process loaded once.

The request list of a workload is one pass.  Passes repeat until
``--seconds`` is used up (at least two).  A pass is timed in units (one
request, one sweep over one map, one realization).  Every time is *paced*
(``pace.py``): scaled by a fixed reference workload run around and during
the unit, so that the changing speed of a shared machine cancels out.  A
unit's time is its median paced time over the passes.  Set-up is sampled
several times and its median reported.  Every answer is checked against
``golden.json``.  With ``--trace 1`` passes alternate between untraced and
traced, as many of each; the traced ones give the per-layer metrics, and
the gap between the two kinds is the tracing overhead.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

import inputs
import layers
import pace

ROOT = inputs.HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("torus-cli", "highgenus-cli", "torus-sweep")

# End-to-end metrics, emitted on every workload by an untraced run.  The
# per-subcommand and per-sweep times are printed but not emitted: each is
# zero on some workload, and a gated metric must be measured on every one.
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
# The per-request-kind breakdown, printed for reading (n/a where the
# workload has no such request); pass_wall_s is pass_s in unpaced wall time.
REPORTED = (
    "setup_s", "coorientations_s", "norm_s", "ball_s", "birkhoff_s", "realize_s",
    "oracle_s", "verify_s", "svg_s", "sweep_norm_s", "sweep_contains_s",
    "sweep_realize_s", "failed_frac", "peak_rss_mb", "pass_s", "pass_wall_s",
)
# Set-up is sampled this many times per run, before any map is loaded in the
# client, so that every session-load sample starts with cold caches.
IMPORT_SAMPLES = 5
SESSION_SAMPLES = 3


def import_program():
    """Import wallnorm from this checkout's src/, or stop without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import wallnorm
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import wallnorm from {SRC}: {exc}")
    if Path(wallnorm.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: wallnorm was imported from {wallnorm.__file__}, not {SRC}")
    return wallnorm


class Tally:
    """Requests attempted, wrong answers, timings and peak memory of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.peak_kb = 0
        # traced? -> (kind, unit) -> [(wall time, paced time)], one per pass
        self.samples = {False: defaultdict(list), True: defaultdict(list)}
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"WRONG ANSWER: {what}", file=sys.stderr)

    def add(self, traced: bool, kind: str, unit: str, wall: float, paced: float) -> None:
        self.samples[traced][(kind, unit)].append((wall, paced))

    def metric(self, traced: bool, kind: str, paced: bool = True) -> float:
        """Sum over the timed units of one kind of their median time over the passes."""
        col = 1 if paced else 0
        return sum(median(s[col] for s in v) for (k, _), v in self.samples[traced].items()
                   if k == kind)

    def kinds(self, traced: bool):
        return sorted({k for k, _ in self.samples[traced]})

    def pass_s(self, traced: bool, paced: bool = True) -> float:
        return sum(self.metric(traced, k, paced=paced) for k in self.kinds(traced))


def fork_call(fn) -> dict:
    """Run fn() in a forked child and return the JSON-able dict it returns."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        try:
            payload = fn()
        except BaseException as exc:  # the child must never return into the parent's code
            payload = {"exception": f"{type(exc).__name__}: {exc}"}
        try:
            with os.fdopen(write_end, "w") as pipe:
                pipe.write(json.dumps(payload))
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return {"exception": f"child exited with status {status}"}
    return json.loads(data)


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def import_s() -> float:
    """Paced time of ``import wallnorm`` in a fresh interpreter, once."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, str(inputs.HERE / "startup.py")], env=env, cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout
    return float(out)


class Bench:
    def __init__(self, wallnorm, golden: dict, workdir: Path, trace: bool, tiny: bool):
        from wallnorm import cli, coorient, eikonal, homology, normball, surface_map
        self.cli, self.coorient, self.eikonal = cli, coorient, eikonal
        self.homology, self.normball, self.surface_map = homology, normball, surface_map
        self.errors = wallnorm.errors
        # The answer checks call the program too; they keep the unwrapped
        # function, so that a traced pass counts only the program's calls.
        self.class_of = coorient.class_of
        self.golden = golden
        self.workdir = workdir
        self.trace = trace
        self.tiny = tiny
        self.pacer = pace.Pacer()
        self.tracer = layers.Tracer(self.pacer.clock)
        self.tally = Tally()
        self.traced_setup: dict | None = None
        self.probe_cap_ignored = 0
        self.setup_samples: dict[str, list[float]] = {"import": [], "session": []}

    # -- one-shot requests ---------------------------------------------------

    def one_shot(self, argv, traced: bool, realize_target=None) -> dict:
        tracer = self.tracer

        def serve():
            if traced:
                tracer.reset()
            (code, out, err), wall, paced = self.pacer.measure(
                lambda: inputs.run_cli(lambda a, out: self.cli.main(a, out=out), argv))
            reply = {"wall": wall, "paced": paced,
                     "answer": inputs.answer_digest(code, out, err), "rss_kb": max_rss_kb()}
            if traced:
                reply["spans"] = tracer.snapshot()
            if realize_target is not None:
                reply["stdout"] = out
                reply["class"] = self.realized_class(argv, out)
            return reply

        return fork_call(serve)

    def realized_class(self, argv, report: str):
        """class_of of the coorientation in a realize report (None if not Eulerian)."""
        wall = Path(argv[1]).read_text()
        wmap = self.surface_map.parse_wall_system(wall)
        basis = self.load_basis(wmap, argv[argv.index("--basis") + 1] if "--basis" in argv else None)
        coor = self.coorient.Coorientation(inputs.signs_from_report(report))
        try:
            return list(self.class_of(wmap, coor, basis))
        except self.errors.NotEulerian:
            return None

    def load_basis(self, wmap, basis_path):
        if basis_path is None:
            return self.homology.homology_basis(wmap)
        return self.homology.basis_from_file(wmap, Path(basis_path).read_text())

    def cli_pass(self, requests, paths, traced: bool) -> None:
        for kind, name, args in requests:
            key = inputs.request_key(kind, name, args)
            target = [int(x) for x in args] if kind == "realize" else None
            reply = self.one_shot(inputs.argv_for(kind, name, args, paths), traced, target)
            if "exception" in reply:
                self.tally.check(False, f"{key}: {reply['exception']}")
                continue
            ok = reply["answer"] == self.golden["reports"][key]
            if target is not None:
                signs = inputs.signs_from_report(reply["stdout"])
                ok = ok and inputs.is_eulerian(self.golden["maps"][name]["wall"], signs) \
                    and reply["class"] == target
            self.tally.check(ok, key)
            self.tally.add(traced, kind, key, reply["wall"], reply["paced"])
            self.tally.peak_kb = max(self.tally.peak_kb, reply["rss_kb"])
            if traced:
                self.tracer.merge(reply["spans"])

    def cold_cap_probe(self, paths) -> None:
        kind, name, args = inputs.cold_cap_probe(self.golden)
        reply = self.one_shot(inputs.argv_for(kind, name, args, paths), False)
        loud = reply.get("answer") == self.golden["reports"][inputs.request_key(kind, name, args)]
        self.probe_cap_ignored += 0 if loud else 1
        self.tally.notes.append(
            f"probe cold enumeration cap {args[-1]} on {name}: "
            + ("fails loudly (expected)" if loud else "did NOT fail as the seed did"))

    # -- the session ---------------------------------------------------------

    def load_session(self, names):
        golden = self.golden
        session = {}
        for name in names:
            entry = golden["maps"][name]
            wmap = self.surface_map.parse_wall_system(entry["wall"])
            if entry["basis"] is None:
                basis = self.homology.homology_basis(wmap)
            else:
                basis = self.homology.basis_from_file(wmap, entry["basis"])
            session[name] = (wmap, basis, self.normball.dual_ball(wmap, basis))
        return session

    def timed(self, traced: bool, kind: str, unit: str, fn):
        gc.collect()  # start every timed unit from the same collector state
        result, wall, paced = self.pacer.measure(fn)
        self.tally.add(traced, kind, unit, wall, paced)
        return result

    def session_pass(self, session, queries, traced: bool) -> None:
        """The three sweeps, timed per map (norm, contains) and per call (realize)."""
        golden, tally = self.golden, self.tally
        norm, contains, realize = self.normball.norm, self.normball.contains, self.eikonal.realize
        for name, batch in queries.items():
            wmap, basis, _ = session[name]
            got = self.timed(traced, "norm", name, lambda: [norm(wmap, basis, a) for a in batch])
            for a, value in zip(batch, got):
                want = inputs.expected_norm(golden["classes"][name], a)
                tally.check((value.value, tuple(value.witness)) == want, f"session norm {name} {a}")
        for name, (_, _, ball) in session.items():
            cases = golden["contains"][name]
            got = self.timed(traced, "contains", name, lambda: [contains(ball, p) for p, _ in cases])
            for (p, want), position in zip(cases, got):
                tally.check(position == want, f"session contains {name} {p}")
        for name, (wmap, basis, _) in session.items():
            for n in self.realize_targets(name):
                key = f"{name} {n}"
                got = self.timed(traced, "realize", key, lambda: realize(wmap, basis, n))
                ok = inputs.is_eulerian(golden["maps"][name]["wall"], got.coorientation.signs) \
                    and list(self.class_of(wmap, got.coorientation, basis)) == n \
                    and inputs.digest(got.coorientation.to_text()) \
                    == golden["realized"][name][",".join(map(str, n))]
                tally.check(ok, f"session realize {key}")

    def realize_targets(self, name):
        targets = self.golden["admissible"][name]
        return targets[:3] if self.tiny else targets

    def warm_cap_probe(self, session) -> None:
        name = inputs.TORUS_MAPS[0]
        wmap, basis, _ = session[name]
        cap = self.golden["eulerian_count"][name] // 2
        try:
            got = self.coorient.enumerate_eulerian(wmap, basis, limit=cap)
        except self.errors.ResourceLimit:
            self.tally.notes.append(f"probe warm enumeration cap {cap} on {name}: fails loudly")
            return
        self.probe_cap_ignored += 1
        self.tally.notes.append(
            f"probe warm enumeration cap {cap} on {name}: KNOWN BUG, returned all "
            f"{got.count} items instead of raising ResourceLimit")

    # -- workloads -----------------------------------------------------------

    def sample_setup(self, session_names=None) -> None:
        """Imports in fresh interpreters and, for a session, cold loads in forked children.

        Runs before the client loads any map: a child forked later would
        inherit the client's warm caches.
        """
        for i in range(IMPORT_SAMPLES):
            self.setup_samples["import"].append(import_s())
            if session_names is not None and i < SESSION_SAMPLES:
                reply = fork_call(lambda: self.time_load(session_names))
                self.setup_samples["session"].append(reply["elapsed"])

    def setup_s(self) -> float:
        return sum(median(v) for v in self.setup_samples.values() if v)

    def passes(self, seconds: float, run_pass) -> int:
        """Run passes until the next would take the passes past `seconds`; at
        least two, and as many traced as untraced ones when tracing."""
        spent = 0.0
        done = 0
        while True:
            traced = self.trace and done % 2 == 1
            if traced:
                self.tracer.install()
            begun = time.perf_counter()
            try:
                run_pass(traced)
            finally:
                self.tracer.uninstall()
            took = time.perf_counter() - begun
            spent += took
            done += 1
            if done >= 2 and spent + took > seconds and not (self.trace and done % 2):
                return done

    def run(self, workload: str, seed: int, seconds: float) -> dict:
        golden = self.golden
        if workload == "torus-sweep":
            names = inputs.torus_maps(self.tiny)
            queries = inputs.norm_sweep_queries(seed, self.tiny)
            self.sample_setup(names)
            if self.trace:
                self.tracer.install()
            session = self.load_session(names)
            self.tracer.uninstall()
            if self.trace:
                self.traced_setup = self.tracer.snapshot()
                self.tracer.reset()
            self.tally.notes.append(f"inputs {self.describe(names, seed)}")
            first = [True]

            def run_pass(traced):
                self.session_pass(session, queries, traced)
                if first[0]:
                    first[0] = False
                    self.warm_cap_probe(session)

            done = self.passes(seconds, run_pass)
        else:
            make = (inputs.torus_cli_requests if workload == "torus-cli"
                    else inputs.highgenus_cli_requests)
            requests = make(golden, seed, self.tiny)
            names = sorted({name for _, name, _ in requests})
            self.tally.notes.append(f"inputs {self.describe(names, seed)}")
            paths = inputs.write_maps(golden, names, self.workdir)
            self.sample_setup()
            done = self.passes(seconds, lambda traced: self.cli_pass(requests, paths, traced))
            if workload == "torus-cli":
                self.cold_cap_probe(paths)
        self.tally.peak_kb = max(self.tally.peak_kb, max_rss_kb())
        return self.result(workload, self.setup_s(), done)

    def time_load(self, names) -> dict:
        _, _, paced = self.pacer.measure(lambda: self.load_session(names))
        return {"elapsed": paced}

    def describe(self, names, seed) -> str:
        import numpy
        return json.dumps({
            "seed": seed,
            "maps": {n: inputs.digest(self.golden["maps"][n]["wall"]) for n in names},
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        }, sort_keys=True)

    # -- output --------------------------------------------------------------

    def result(self, workload: str, setup: float, done: int) -> dict:
        tally = self.tally
        sweep = workload == "torus-sweep"
        shown = {"setup_s": setup, "failed_frac": tally.failed / max(tally.attempted, 1),
                 "peak_rss_mb": tally.peak_kb / 1024, "pass_s": tally.pass_s(False),
                 "pass_wall_s": tally.pass_s(False, paced=False)}
        for kind in tally.kinds(False):
            shown[(f"sweep_{kind}_s" if sweep else f"{kind}_s")] = tally.metric(False, kind)
        print(f"# workload {workload}: {done} passes, {tally.attempted} requests, "
              f"{tally.failed} wrong")
        for note in tally.notes:
            print(f"# {note}")
        for name in REPORTED:
            value = shown.get(name)
            print(f"# {name:18} " + ("n/a" if value is None else f"{value:.6g}"))

        if not self.trace:
            metrics = {name: shown[name] for name in END_TO_END}
            units = END_TO_END
        else:
            traced_passes = done // 2
            metrics = layers.layer_metrics(self.tracer.snapshot(), traced_passes,
                                           self.traced_setup)
            metrics["trace.overhead_pct"] = 100 * (tally.pass_s(True) / tally.pass_s(False) - 1)
            metrics["probe.cap_ignored"] = self.probe_cap_ignored
            units = {m: layer_unit(m) for m in metrics}
            for name, value in metrics.items():
                print(f"# {name:28} {value:.6g} {units[name]}")
        return {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        }


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_pct"):
        return "%"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest maps and sweeps, for the self-check")
    args = parser.parse_args(argv)

    wallnorm = import_program()
    golden = inputs.load_golden()
    gc.freeze()  # keep the forked children from copying the parent's heap during collection
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as work:
        bench = Bench(wallnorm, golden, Path(work), bool(args.trace), args.tiny)
        result = bench.run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
